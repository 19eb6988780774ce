//! Blocking client for the solve service.
//!
//! One [`Client`] wraps one TCP connection and issues one request at a
//! time; concurrency comes from opening more connections, which is exactly
//! what feeds the server-side micro-batcher.
//!
//! Every connection opens with the `HELLO` handshake, and every frame
//! after it carries a 64-bit request id plus a payload checksum trailer;
//! the client verifies both on every reply — an id mismatch or checksum
//! failure surfaces as [`ClientError::Protocol`], which
//! [`Client::solve_with_retry`] treats as transient across a mandatory
//! reconnect. A peer that does not answer `OK_HELLO` with version 4 is
//! not one this client can talk to, and the connect fails.
//!
//! Resilience is opt-in through
//! [`ClientOptions`]: connect/request timeouts, transparent reconnect, and
//! [`Client::solve_with_retry`], which retries transient failures —
//! `Busy` sheds (honoring the server's `retry_after_ms` hint), deadline
//! misses, and broken connections — under capped exponential backoff with
//! seeded jitter. Permanent errors (unknown fingerprint, dimension
//! mismatch, non-finite input, …) are never retried.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use trisolv_matrix::rng::Rng;
use trisolv_matrix::CscMatrix;

use crate::fingerprint::Fingerprint;
use crate::protocol::{
    decode_stats, encode_v4, op, parse_err, read_frame, unwrap_v4, write_frame, Builder, Cursor,
    EnvelopeError, ErrorCode, PROTOCOL_VERSION, SOLVE_FLAG_CERTIFIED,
};

/// Client-visible failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure.
    Io(String),
    /// The server's bytes did not decode as a valid reply.
    Protocol(String),
    /// The server answered with a structured `ERR` frame.
    Server {
        /// Wire error code (`None` if the code was unrecognized).
        code: Option<ErrorCode>,
        /// Human-readable message from the server.
        message: String,
        /// Backoff hint from a `Busy` shed, if the server sent one.
        retry_after_ms: Option<u64>,
    },
}

impl ClientError {
    /// Whether a retry could plausibly succeed: transport failures (the
    /// peer may be back), `Busy` sheds, and deadline/timeout misses.
    /// `Protocol` errors are transient only across a *reconnect* — the
    /// stream that produced one is desynchronized and must never be
    /// reused; [`Client::solve_with_retry`] enforces that.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Protocol(_) => true,
            ClientError::Server { code, .. } => matches!(
                code,
                Some(ErrorCode::Busy)
                    | Some(ErrorCode::Deadline)
                    | Some(ErrorCode::Timeout)
                    | Some(ErrorCode::Corrupt)
            ),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "io error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e.to_string())
    }
}

/// Reply to a successful `LOAD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReply {
    /// Fingerprint the factor is cached under.
    pub fingerprint: Fingerprint,
    /// Matrix order.
    pub n: usize,
    /// Nonzeros in the numeric factor.
    pub factor_nnz: usize,
    /// Whether the factor was already resident.
    pub already_cached: bool,
}

/// Reply to a successful certified `SOLVE` (flags bit 0): the refined
/// solution plus its refinement certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedReply {
    /// The refined solution.
    pub x: Vec<f64>,
    /// Refinement iterations the server performed.
    pub iterations: u32,
    /// Final componentwise backward error.
    pub backward_error: f64,
    /// Whether the backward error reached the server's certification
    /// target.
    pub certified: bool,
}

/// One backend's outcome in a router's `OK_EVICTED` per-replica trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaEvict {
    /// The replica answered: the fingerprint was not resident there.
    NotResident,
    /// The replica answered: the factor was evicted.
    Evicted,
    /// The replica could not be reached (dead or erroring backend).
    Unreachable,
}

/// Reply to [`Client::evict_detailed`]: the aggregate flag plus, when the
/// peer is a router, the outcome on every replica of the fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictReply {
    /// Whether the factor was resident anywhere.
    pub existed: bool,
    /// Per-replica `(backend address, outcome)`; empty from a single server.
    pub per_backend: Vec<(String, ReplicaEvict)>,
}

/// Resilience knobs for [`Client::connect_with`] /
/// [`Client::solve_with_retry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOptions {
    /// Per-attempt TCP connect budget.
    pub connect_timeout: Duration,
    /// Socket read/write timeout per request (zero disables).
    pub request_timeout: Duration,
    /// Retry attempts after the first try (0 = single-shot).
    pub retries: u32,
    /// Base backoff; attempt `k` waits ~`backoff · 2^k` with jitter.
    pub backoff: Duration,
    /// Cap on the exponential backoff.
    pub max_backoff: Duration,
    /// Seed for backoff jitter (deterministic tests; vary it per client).
    pub seed: u64,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            retries: 3,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0,
        }
    }
}

/// Retry-path counters accumulated by [`Client::solve_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Attempts re-issued after a transient failure.
    pub retried: u64,
    /// `ERR Busy` sheds observed.
    pub shed: u64,
    /// `ERR Deadline`/`ERR Timeout` misses observed.
    pub deadline_missed: u64,
    /// Connections re-established after transport failures.
    pub reconnects: u64,
}

/// A blocking connection to a solve server.
pub struct Client {
    stream: TcpStream,
    /// Address kept for reconnects (only set by [`Client::connect_with`]).
    addr: Option<String>,
    opts: ClientOptions,
    rng: Rng,
    stats: RetryStats,
    /// Next request id on this connection.
    next_rid: u64,
}

impl Client {
    /// Connect once with no timeouts and no retry machinery (no address is
    /// retained, so [`Client::solve_with_retry`] cannot reconnect), and
    /// perform the `HELLO` handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let opts = ClientOptions {
            retries: 0,
            ..ClientOptions::default()
        };
        Client::greet(stream, None, opts)
    }

    /// Connect with resilience options: a bounded connect, socket
    /// read/write timeouts, and the address retained so
    /// [`Client::solve_with_retry`] can reconnect after transport failures.
    /// The connection opens with the `HELLO` handshake.
    pub fn connect_with(addr: &str, opts: ClientOptions) -> io::Result<Client> {
        let stream = Self::dial(addr, &opts)?;
        Client::greet(stream, Some(addr.to_string()), opts)
    }

    fn greet(stream: TcpStream, addr: Option<String>, opts: ClientOptions) -> io::Result<Client> {
        let mut client = Client {
            stream,
            addr,
            rng: Rng::seed_from_u64(opts.seed),
            opts,
            stats: RetryStats::default(),
            next_rid: 1,
        };
        client
            .hello()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(client)
    }

    /// The handshake: offer [`PROTOCOL_VERSION`] in a bare `HELLO` and
    /// require `OK_HELLO` to agree on it. Must be the first exchange on a
    /// stream; everything after it is enveloped.
    fn hello(&mut self) -> Result<(), ClientError> {
        let payload = Builder::new().u16(PROTOCOL_VERSION).build();
        write_frame(&mut self.stream, op::HELLO, &payload)?;
        let (opcode, reply) = read_frame(&mut self.stream)?;
        Self::expect(opcode, op::OK_HELLO, &reply)?;
        match Cursor::new(&reply).u16() {
            Ok(PROTOCOL_VERSION) => Ok(()),
            Ok(other) => Err(ClientError::Protocol(format!(
                "peer negotiated protocol version {other}, need {PROTOCOL_VERSION}"
            ))),
            Err(m) => Err(ClientError::Protocol(m)),
        }
    }

    fn dial(addr: &str, opts: &ClientOptions) -> io::Result<TcpStream> {
        let mut last = None;
        for sa in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, opts.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    if !opts.request_timeout.is_zero() {
                        stream.set_read_timeout(Some(opts.request_timeout))?;
                        stream.set_write_timeout(Some(opts.request_timeout))?;
                    }
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )
        }))
    }

    /// Connect, retrying every 100 ms for up to `patience` (for races where
    /// the server is still binding, e.g. the CI smoke job).
    pub fn connect_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        patience: Duration,
    ) -> io::Result<Client> {
        let deadline = Instant::now() + patience;
        loop {
            match Client::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    }

    /// Counters accumulated by the retry path so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// Ship a matrix; the server factors and caches it.
    pub fn load(&mut self, a: &CscMatrix) -> Result<LoadReply, ClientError> {
        let payload = Builder::new()
            .u64(a.nrows() as u64)
            .u64(a.ncols() as u64)
            .u64(a.nnz() as u64)
            .usize_slice(a.colptr())
            .usize_slice(a.rowidx())
            .f64_slice(a.values())
            .build();
        let (opcode, reply) = self.round_trip(op::LOAD, &payload)?;
        Self::expect(opcode, op::OK_LOADED, &reply)?;
        let mut c = Cursor::new(&reply);
        let parsed = (|| {
            let fingerprint = c.fingerprint()?;
            let n = c.usize()?;
            let factor_nnz = c.usize()?;
            let already_cached = c.u8()? != 0;
            c.finish()?;
            Ok::<_, String>(LoadReply {
                fingerprint,
                n,
                factor_nnz,
                already_cached,
            })
        })();
        parsed.map_err(ClientError::Protocol)
    }

    /// Solve one right-hand side against a cached factor (no deadline).
    pub fn solve(&mut self, fp: Fingerprint, rhs: &[f64]) -> Result<Vec<f64>, ClientError> {
        self.solve_with_deadline(fp, rhs, 0)
    }

    /// Solve with an end-to-end deadline in milliseconds (0 = server
    /// default). Single-shot: no retries.
    pub fn solve_with_deadline(
        &mut self,
        fp: Fingerprint,
        rhs: &[f64],
        deadline_ms: u64,
    ) -> Result<Vec<f64>, ClientError> {
        let payload = Builder::new()
            .fingerprint(fp)
            .u64(deadline_ms)
            .u64(rhs.len() as u64)
            .f64_slice(rhs)
            .build();
        let (opcode, reply) = self.round_trip(op::SOLVE, &payload)?;
        Self::expect(opcode, op::OK_SOLVED, &reply)?;
        let parsed = (|| {
            let mut c = Cursor::new(&reply);
            let n = c.usize()?;
            let x = c.f64_vec(n)?;
            c.finish()?;
            Ok::<_, String>(x)
        })();
        parsed.map_err(ClientError::Protocol)
    }

    /// Solve with iterative refinement: the server refines against the
    /// retained original matrix and the reply carries the certificate
    /// (iterations, componentwise backward error, certified flag).
    /// Single-shot, optional deadline in milliseconds (0 = server default).
    pub fn solve_certified(
        &mut self,
        fp: Fingerprint,
        rhs: &[f64],
        deadline_ms: u64,
    ) -> Result<CertifiedReply, ClientError> {
        let payload = Builder::new()
            .fingerprint(fp)
            .u64(deadline_ms)
            .u64(rhs.len() as u64)
            .f64_slice(rhs)
            .u8(SOLVE_FLAG_CERTIFIED)
            .build();
        let (opcode, reply) = self.round_trip(op::SOLVE, &payload)?;
        Self::expect(opcode, op::OK_SOLVED, &reply)?;
        let parsed = (|| {
            let mut c = Cursor::new(&reply);
            let n = c.usize()?;
            let x = c.f64_vec(n)?;
            let iterations = c.u32()?;
            let backward_error = c.f64()?;
            let certified = c.u8()? != 0;
            c.finish()?;
            Ok::<_, String>(CertifiedReply {
                x,
                iterations,
                backward_error,
                certified,
            })
        })();
        parsed.map_err(ClientError::Protocol)
    }

    /// Solve with the full resilience ladder: transient failures (transport
    /// errors, `Busy` sheds, deadline misses) are retried up to
    /// `opts.retries` times under capped exponential backoff with seeded
    /// jitter; a `Busy` shed waits at least the server's `retry_after_ms`
    /// hint. Transport failures reconnect first (requires the client to
    /// have been built by [`Client::connect_with`]). A `Protocol` failure
    /// *requires* the reconnect — a desynchronized stream is never reused —
    /// and turns permanent if a fresh stream also yields an unparseable
    /// reply.
    pub fn solve_with_retry(
        &mut self,
        fp: Fingerprint,
        rhs: &[f64],
        deadline_ms: u64,
    ) -> Result<Vec<f64>, ClientError> {
        let mut attempt = 0u32;
        // Set once a Protocol error has already been answered with a fresh
        // stream: a second undecodable reply means the server itself is
        // speaking garbage, not that this connection desynchronized.
        let mut protocol_err_on_fresh_stream = false;
        loop {
            let err = match self.solve_with_deadline(fp, rhs, deadline_ms) {
                Ok(x) => return Ok(x),
                Err(e) => e,
            };
            let mut floor_ms = None;
            match &err {
                ClientError::Server {
                    code: Some(ErrorCode::Busy),
                    retry_after_ms,
                    ..
                } => {
                    self.stats.shed += 1;
                    floor_ms = *retry_after_ms;
                }
                ClientError::Server {
                    code: Some(ErrorCode::Deadline) | Some(ErrorCode::Timeout),
                    ..
                } => self.stats.deadline_missed += 1,
                // A frame damaged in transit; the connection itself is
                // still framed correctly, so a plain retry may succeed.
                ClientError::Server {
                    code: Some(ErrorCode::Corrupt),
                    ..
                } => {}
                ClientError::Io(_) | ClientError::Protocol(_) => {}
                _ => return Err(err), // permanent
            }
            if !err.is_transient() || attempt >= self.opts.retries {
                return Err(err);
            }
            match &err {
                ClientError::Protocol(_) => {
                    // The stream is desynchronized: the next frame boundary
                    // is unknowable, so retrying on it would spin against
                    // garbage bytes. The reconnect is mandatory — when it is
                    // impossible (no retained address) or a fresh stream
                    // already produced an unparseable reply, the error is
                    // permanent.
                    if protocol_err_on_fresh_stream || self.reconnect().is_err() {
                        return Err(err);
                    }
                    protocol_err_on_fresh_stream = true;
                }
                ClientError::Io(_) => {
                    // The transport failed; replace it. A failed reconnect
                    // is fine — the server may still be coming back, and
                    // the next attempt will dial again after the backoff.
                    let _ = self.reconnect();
                    protocol_err_on_fresh_stream = false;
                }
                _ => protocol_err_on_fresh_stream = false,
            }
            std::thread::sleep(self.backoff_delay(attempt, floor_ms));
            self.stats.retried += 1;
            attempt += 1;
        }
    }

    /// Replace the connection (only possible for `connect_with` clients);
    /// the fresh stream starts with its own handshake.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let addr = self
            .addr
            .clone()
            .ok_or_else(|| ClientError::Io("no address retained for reconnect".to_string()))?;
        self.stream = Self::dial(&addr, &self.opts)?;
        self.hello()?;
        self.stats.reconnects += 1;
        Ok(())
    }

    /// Capped exponential backoff with jitter in `[0.5·base, base)`,
    /// floored at the server's `retry_after_ms` hint when present.
    fn backoff_delay(&mut self, attempt: u32, floor_ms: Option<u64>) -> Duration {
        let base = self
            .opts
            .backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.opts.max_backoff);
        let jittered = base.mul_f64(self.rng.range_f64(0.5, 1.0));
        jittered.max(Duration::from_millis(floor_ms.unwrap_or(0)))
    }

    /// Fetch the engine counters as `(key, value)` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        let (opcode, reply) = self.round_trip(op::STATS, &[])?;
        Self::expect(opcode, op::OK_STATS, &reply)?;
        match decode_stats(&reply) {
            (pairs, true) => Ok(pairs),
            (_, false) => Err(ClientError::Protocol("malformed STATS reply".to_string())),
        }
    }

    /// Drop a cached factor; returns whether it was resident. Trailing
    /// bytes after the `existed` flag (a router's per-replica outcomes)
    /// are ignored; [`Client::evict_detailed`] decodes them.
    pub fn evict(&mut self, fp: Fingerprint) -> Result<bool, ClientError> {
        Ok(self.evict_detailed(fp)?.existed)
    }

    /// Drop a cached factor and decode the per-replica outcomes a router
    /// appends to `OK_EVICTED`. Against a single server the `per_backend`
    /// list is empty (the trailer only exists on fleet replies).
    pub fn evict_detailed(&mut self, fp: Fingerprint) -> Result<EvictReply, ClientError> {
        let payload = Builder::new().fingerprint(fp).build();
        let (opcode, reply) = self.round_trip(op::EVICT, &payload)?;
        Self::expect(opcode, op::OK_EVICTED, &reply)?;
        let parsed = (|| {
            let mut c = Cursor::new(&reply);
            let existed = c.u8()? != 0;
            let mut per_backend = Vec::new();
            if c.remaining() > 0 {
                let count = c.u8()? as usize;
                for _ in 0..count {
                    let alen = c.u16()? as usize;
                    let addr = String::from_utf8_lossy(c.bytes(alen)?).into_owned();
                    let status = match c.u8()? {
                        0 => ReplicaEvict::NotResident,
                        1 => ReplicaEvict::Evicted,
                        _ => ReplicaEvict::Unreachable,
                    };
                    per_backend.push((addr, status));
                }
            }
            Ok::<_, String>(EvictReply {
                existed,
                per_backend,
            })
        })();
        parsed.map_err(ClientError::Protocol)
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let (opcode, reply) = self.round_trip(op::SHUTDOWN, &[])?;
        Self::expect(opcode, op::OK_BYE, &reply)?;
        Ok(())
    }

    /// Send raw bytes on the wire (test hook for malformed traffic).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Read one raw frame off the wire (test hook).
    pub fn recv_raw(&mut self) -> io::Result<(u8, Vec<u8>)> {
        read_frame(&mut self.stream)
    }

    fn round_trip(&mut self, opcode: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), ClientError> {
        use std::io::Write as _;
        let rid = self.next_rid;
        self.next_rid += 1;
        self.stream.write_all(&encode_v4(opcode, rid, payload))?;
        let (ropc, rbody) = read_frame(&mut self.stream)?;
        match unwrap_v4(ropc, &rbody) {
            Ok((got, inner)) => {
                // ERR frames echo a best-effort id (the request may have
                // been too corrupt to trust its id field, or the error may
                // belong to the connection), so only success replies are
                // held to exact correlation.
                if ropc != op::ERR && got != rid {
                    return Err(ClientError::Protocol(format!(
                        "reply correlates to request {got}, expected {rid}"
                    )));
                }
                Ok((ropc, inner.to_vec()))
            }
            Err(EnvelopeError::Checksum) => Err(ClientError::Protocol(
                "reply failed its payload checksum".to_string(),
            )),
            Err(EnvelopeError::TooShort) => Err(ClientError::Protocol(
                "reply shorter than its envelope".to_string(),
            )),
        }
    }

    fn expect(opcode: u8, wanted: u8, reply: &[u8]) -> Result<(), ClientError> {
        if opcode == wanted {
            return Ok(());
        }
        if opcode == op::ERR {
            return match parse_err(reply) {
                Ok((code, message, retry_after_ms)) => Err(ClientError::Server {
                    code,
                    message,
                    retry_after_ms,
                }),
                Err(m) => Err(ClientError::Protocol(format!("undecodable ERR frame: {m}"))),
            };
        }
        Err(ClientError::Protocol(format!(
            "unexpected reply opcode 0x{opcode:02x} (wanted 0x{wanted:02x})"
        )))
    }
}

/// A small idle-connection pool for one server address.
///
/// [`Client`] reconnects transparently, but every *new* `Client` dials a
/// fresh TCP connection — callers that issue short bursts of requests
/// (router fan-out helpers, fleet supervision, benches) would otherwise
/// pay a handshake per burst. [`ClientPool::get`] hands out an idle
/// connection when one is parked and dials only when the pool is empty;
/// dropping the [`PooledClient`] parks the connection again (up to
/// `max_idle`), unless [`PooledClient::discard`] marked it broken.
pub struct ClientPool {
    addr: String,
    opts: ClientOptions,
    max_idle: usize,
    idle: std::sync::Mutex<Vec<Client>>,
}

impl ClientPool {
    /// A pool for `addr`; at most `max_idle` parked connections are kept.
    pub fn new(addr: &str, opts: ClientOptions, max_idle: usize) -> ClientPool {
        ClientPool {
            addr: addr.to_string(),
            opts,
            max_idle: max_idle.max(1),
            idle: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Check out a connection: a parked idle one when available (most
    /// recently parked first — its socket is the least likely to have been
    /// idled out by the peer), a fresh dial otherwise.
    pub fn get(&self) -> io::Result<PooledClient<'_>> {
        let parked = {
            let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
            idle.pop()
        };
        let client = match parked {
            Some(c) => c,
            None => Client::connect_with(&self.addr, self.opts.clone())?,
        };
        Ok(PooledClient {
            pool: self,
            client: Some(client),
        })
    }

    /// Parked idle connections right now (test/diagnostic hook).
    pub fn idle_count(&self) -> usize {
        self.idle.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn park(&self, client: Client) {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if idle.len() < self.max_idle {
            idle.push(client);
        }
    }
}

/// A checked-out pool connection; derefs to [`Client`] and returns the
/// connection to the pool on drop.
pub struct PooledClient<'a> {
    pool: &'a ClientPool,
    client: Option<Client>,
}

impl PooledClient<'_> {
    /// Consume without returning the connection to the pool — call after
    /// an error that may have desynchronized or killed the stream.
    pub fn discard(mut self) {
        self.client = None;
    }
}

impl std::ops::Deref for PooledClient<'_> {
    type Target = Client;
    fn deref(&self) -> &Client {
        self.client.as_ref().expect("client present until drop")
    }
}

impl std::ops::DerefMut for PooledClient<'_> {
    fn deref_mut(&mut self) -> &mut Client {
        self.client.as_mut().expect("client present until drop")
    }
}

impl Drop for PooledClient<'_> {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            self.pool.park(client);
        }
    }
}
