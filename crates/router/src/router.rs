//! The router proper: a proxy event loop with consistent-hash placement,
//! replication, deterministic failover, and hedged dispatch.
//!
//! One loop thread owns every socket. The client side is the server's own
//! [`FrontEnd`] — accept, handshake, envelope verification, refusals and
//! slow-peer cuts are its business, and what reaches this file is a list
//! of admitted requests. The backend side is one outbound [`Conn`] per
//! backend (requests through [`Conn::enqueue`], replies through the
//! incremental frame parser). There is no worker pool: proxying is cheap.
//!
//! Every backend connection opens with the `HELLO` handshake; a backend
//! that does not answer `OK_HELLO` with version 4 is a failed dial and goes
//! back to the breaker. After it, sub-requests go out enveloped (64-bit
//! wire request id + payload checksum trailer): replies correlate through
//! a per-connection id map, may land out of order, and a hung reply
//! expires *alone* instead of condemning the connection. A reply whose
//! checksum fails is counted (`router_crc_rejects`) and dropped — its id
//! is untrustworthy — and the sub-request runs into its own expiry. A
//! reply that correlates to nothing (duplicate, or late after its sub
//! expired) is counted (`router_orphan_replies`) and dropped; the
//! connection keeps serving.
//!
//! Hedged SOLVE (DESIGN.md §18): once a forwarded SOLVE outlives an
//! adaptive per-backend threshold — `max(`windowed p99 of that backend's
//! completions`, hedge_after)` — the router duplicates it to the next
//! replica, first valid reply wins, and the loser is discarded safely by
//! request id. Hedges are capped by `hedge_budget` (a fraction of SOLVE
//! sub-requests sent) and never re-hedged.
//!
//! Per-opcode routing (DESIGN.md §15):
//!
//! * `LOAD` — fingerprint computed at the edge (same digest the backend
//!   will derive), payload retained for rejoin replay, fanned out to every
//!   healthy replica; replies when all answer, with the first `OK_LOADED`.
//! * `SOLVE` — forwarded to the first healthy replica in ring order with
//!   the deadline field rewritten to the *remaining* budget; fails over to
//!   the next replica on `ERR Busy`, `ERR UnknownFingerprint`,
//!   `ERR Timeout`, connection loss, or a hung-backend backstop timeout.
//!   Permanent errors propagate as-is; an exhausted replica set propagates
//!   the last error (or `Busy` with a retry hint if none was reachable).
//! * `EVICT` — broadcast to every replica, answered with the aggregate
//!   `existed` plus the per-backend outcome trailer.
//! * `STATS` — fanned out to every healthy backend, summed per key, and
//!   annotated with `router_*` gauges.
//! * `SHUTDOWN` — answered with `OK_BYE`; stops the router only (backend
//!   lifecycles belong to whoever spawned them, e.g. [`crate::launch`]).
//!
//! Deadlines propagate end-to-end: the client's budget is clamped to the
//! router's cap, each forward carries only the remaining time, and a
//! failover that would start past the deadline answers `ERR Deadline`
//! instead of burning a backend on a doomed request. `retry_after_ms`
//! hints survive the trip back verbatim.
//!
//! [`FrontEnd`]: trisolv_server::frontend::FrontEnd
//! [`Conn`]: trisolv_server::conn::Conn
//! [`Conn::enqueue`]: trisolv_server::conn::Conn::enqueue

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trisolv_server::conn::{Conn, FrameStep, Outcome, ReadStatus};
use trisolv_server::frontend::{self, FrontEnd, FrontEndConfig, FrontStats};
use trisolv_server::poller::{self, Interest, PollFd, Waker};
use trisolv_server::protocol::{
    decode_load, decode_stats, encode_frame, encode_stats, encode_v4, err_payload, op, parse_err,
    unwrap_v4, Builder, Cursor, ErrorCode, PROTOCOL_VERSION,
};
use trisolv_server::stats::bump;
use trisolv_server::{FaultPlan, Fingerprint};

use crate::backend::{Backend, Retained, SubReq};
use crate::ring::Ring;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Client-facing bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend addresses (`host:port` of running `trisolv serve`
    /// processes). The ring is built over this list in order, so the same
    /// list always yields the same placement.
    pub backends: Vec<String>,
    /// Replication factor: each fingerprint lives on this many backends
    /// (clamped to the fleet size).
    pub replication: usize,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Slow-peer guard for client sockets and backend writes, and part of
    /// the hung-backend reply backstop. Zero disables the client guard.
    pub io_timeout: Duration,
    /// Cap on client SOLVE deadlines; also the default budget when a
    /// client sends none.
    pub deadline_cap: Duration,
    /// Maximum concurrent client connections (0 = unlimited).
    pub max_conns: usize,
    /// Per-client-connection pipelining cap.
    pub max_pipeline: usize,
    /// Base interval between reconnect probes to an unhealthy backend
    /// (doubles per consecutive failure, capped).
    pub probe_interval: Duration,
    /// Byte budget for retained LOAD payloads (rejoin replay).
    pub retained_budget: usize,
    /// Floor on the adaptive hedge threshold: a forwarded SOLVE is never
    /// hedged before it is at least this old. Zero disables hedging.
    pub hedge_after: Duration,
    /// Hedge budget as a fraction of SOLVE sub-requests sent (0.10 = at
    /// most ~10% extra dispatches). Zero disables hedging.
    pub hedge_budget: f64,
}

impl Default for RouterOptions {
    fn default() -> RouterOptions {
        RouterOptions {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            replication: 2,
            vnodes: Ring::DEFAULT_VNODES,
            io_timeout: Duration::from_secs(10),
            deadline_cap: Duration::from_secs(30),
            max_conns: 0,
            max_pipeline: 64,
            probe_interval: Duration::from_millis(100),
            retained_budget: 256 << 20,
            hedge_after: Duration::from_millis(50),
            hedge_budget: 0.10,
        }
    }
}

/// Gauges shared between the loop thread and [`RunningRouter`].
#[derive(Default)]
struct Shared {
    healthy: AtomicUsize,
    /// The `live` rows of the router's STATS table.
    counters: Counters,
    /// Backend replies that failed their checksum.
    backend_crc_rejects: AtomicU64,
    /// The client-facing front end's counters.
    front: Arc<FrontStats>,
}

impl Shared {
    fn crc_rejects(&self) -> u64 {
        load(&self.backend_crc_rejects) + load(&self.front.crc_rejects)
    }
}

/// Read a counter the loop thread bumps.
fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Acquire)
}

trisolv_server::stats_table! {
    impl RouterLoop {
        counters: Counters at shared.counters,
        snapshot: fn stats,
        pairs: fn stats_pairs,
    }
    /// The router's own `STATS` keys, appended after the fleet sum in
    /// table order; README.md's STATS table describes each.
    struct RouterStats {
        wire router_backends = |r, _| r.backends.len() as u64;
        wire router_backends_healthy =
            |r, _| r.backends.iter().filter(|b| b.usable()).count() as u64;
        live router_failovers: u64;
        live router_rejoins: u64;
        live router_requests: u64;
        wire router_retained_loads = |r, _| r.retained.len() as u64;
        wire router_retained_bytes = |r, _| r.retained.bytes() as u64;
        live router_hedges_sent: u64;
        live router_hedge_wins: u64;
        read router_crc_rejects: u64 = |r| r.shared.crc_rejects();
        live router_orphan_replies: u64;
    }
}

/// Handle to a spawned router; dropping it shuts the router down.
pub struct RunningRouter {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// The router entry point.
pub struct Router;

impl Router {
    /// Bind the client-facing listener, spawn the event loop and the
    /// dialer thread, and return immediately. Backends start `Probing`;
    /// use [`RunningRouter::wait_healthy`] to block until the fleet is up.
    pub fn spawn(opts: RouterOptions) -> io::Result<RunningRouter> {
        if opts.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (waker, wake_rx) = poller::wake_pair()?;
        let waker = Arc::new(waker);
        let shared = Arc::new(Shared::default());
        let (dial_tx, dial_rx) = mpsc::channel::<Dial>();
        let dials = Arc::new(DialQueue {
            items: Mutex::new(Vec::new()),
            waker: Arc::clone(&waker),
        });
        let mut threads = Vec::with_capacity(2);
        {
            let dials = Arc::clone(&dials);
            let shutdown = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name("tsv-dialer".to_string())
                    .spawn(move || dialer_loop(dial_rx, &dials, &shutdown))?,
            );
        }
        let now = Instant::now();
        let ring = Ring::new(opts.backends.len(), opts.vnodes);
        let backends = opts
            .backends
            .iter()
            .map(|a| Backend::new(a.clone(), now))
            .collect();
        let retained = Retained::new(opts.retained_budget);
        let front = FrontEnd::new(
            listener,
            FrontEndConfig {
                io_timeout: opts.io_timeout,
                max_conns: opts.max_conns,
                max_pipeline: opts.max_pipeline,
                busy_retry_ms: retry_hint_ms(opts.probe_interval),
                fault: FaultPlan::none(),
            },
            Arc::clone(&shared.front),
        );
        let lp = RouterLoop {
            front,
            wake_rx,
            dial_tx,
            dials,
            shutdown: Arc::clone(&shutdown),
            shared: Arc::clone(&shared),
            opts,
            ring,
            backends,
            requests: HashMap::new(),
            next_req: 0,
            retained,
            solve_subs_sent: 0,
        };
        threads.push(
            std::thread::Builder::new()
                .name("tsv-router".to_string())
                .spawn(move || router_loop(lp))?,
        );
        Ok(RunningRouter {
            local_addr,
            shutdown,
            waker,
            shared,
            threads,
        })
    }
}

impl RunningRouter {
    /// The bound client-facing address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Backends currently `Healthy` (connected, replays drained).
    pub fn healthy_backends(&self) -> usize {
        self.shared.healthy.load(Ordering::Acquire)
    }

    /// SOLVE re-routes performed so far (replica failovers).
    pub fn failovers(&self) -> u64 {
        load(&self.shared.counters.router_failovers)
    }

    /// Hedge duplicates dispatched so far.
    pub fn hedges_sent(&self) -> u64 {
        load(&self.shared.counters.router_hedges_sent)
    }

    /// Requests answered by a hedge duplicate rather than the primary.
    pub fn hedge_wins(&self) -> u64 {
        load(&self.shared.counters.router_hedge_wins)
    }

    /// Frames rejected for a payload-checksum mismatch (corrupt backend
    /// replies and corrupt client requests).
    pub fn crc_rejects(&self) -> u64 {
        self.shared.crc_rejects()
    }

    /// Backend replies that correlated to nothing (duplicates, or replies
    /// landing after their sub-request expired) — dropped, not fatal.
    pub fn orphan_replies(&self) -> u64 {
        load(&self.shared.counters.router_orphan_replies)
    }

    /// Block until at least `min` backends are `Healthy`, up to `timeout`.
    /// Returns whether the threshold was reached.
    pub fn wait_healthy(&self, min: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.healthy_backends() >= min {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Signal shutdown without waiting.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Signal shutdown and join every thread.
    pub fn join(self) {
        self.shutdown();
        self.wait();
    }

    /// Block until the router shuts down (via a `SHUTDOWN` frame or a
    /// [`RunningRouter::shutdown`] call from another thread), joining every
    /// thread without itself requesting shutdown.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RunningRouter {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Dialer thread: blocking connects off the event loop
// ---------------------------------------------------------------------------

struct Dial {
    idx: usize,
    addr: String,
}

struct DialDone {
    idx: usize,
    result: io::Result<TcpStream>,
}

struct DialQueue {
    items: Mutex<Vec<DialDone>>,
    waker: Arc<Waker>,
}

impl DialQueue {
    fn push(&self, d: DialDone) {
        self.items.lock().unwrap_or_else(|e| e.into_inner()).push(d);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<DialDone> {
        std::mem::take(&mut *self.items.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

fn dialer_loop(rx: Receiver<Dial>, dials: &DialQueue, shutdown: &AtomicBool) {
    while let Ok(d) = rx.recv() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let result = dial(&d.addr);
        dials.push(DialDone { idx: d.idx, result });
    }
}

fn dial(addr: &str) -> io::Result<TcpStream> {
    let mut last = None;
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, Duration::from_secs(1)) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(last
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing")))
}

// ---------------------------------------------------------------------------
// Request state
// ---------------------------------------------------------------------------

/// Sentinel client id for router-internal requests (rejoin replays).
const INTERNAL: u64 = u64::MAX;

/// A parsed error triple as it travels through failover bookkeeping.
type ErrInfo = (ErrorCode, String, Option<u64>);

enum Kind {
    Solve {
        /// Original SOLVE payload; bytes 16..24 are rewritten with the
        /// remaining budget on each forward.
        payload: Vec<u8>,
        replicas: Vec<usize>,
        /// Next replica index to try.
        next: usize,
        deadline: Instant,
        last_err: Option<ErrInfo>,
        /// Sub-requests currently in flight for this request (> 1 while a
        /// hedge races the primary). A transient failure on one arm only
        /// fails over once the other arm has also resolved.
        subs: usize,
        /// Whether a hedge was already dispatched (one per request).
        hedged: bool,
    },
    Load {
        outstanding: usize,
        reply: Option<Vec<u8>>,
        last_err: Option<ErrInfo>,
    },
    Evict {
        existed: bool,
        outstanding: usize,
        /// `(backend index, status)` per replica in ring order; status
        /// defaults to `2` (unreachable) until a reply lands.
        outcomes: Vec<(usize, u8)>,
    },
    Stats {
        outstanding: usize,
        acc: BTreeMap<String, u64>,
    },
    /// Internal retained-LOAD replay toward a rejoining backend.
    Rejoin { backend: usize },
}

/// Where a request's reply goes.
#[derive(Clone, Copy)]
struct Origin {
    /// The front end's connection id ([`INTERNAL`] for rejoin replays).
    client: u64,
    /// The client's wire request id, echoed in the reply envelope.
    cwire: u64,
}

struct Request {
    origin: Origin,
    kind: Kind,
}

/// What a backend reply (or sub-request failure) resolved into, computed
/// under the `requests` borrow and acted on after it drops.
enum Step {
    /// Fan-out still has outstanding sub-requests.
    Pending,
    /// The request is complete: answer the client with this reply
    /// (opcode, payload).
    Reply(u8, Vec<u8>),
    /// Solve failover: try the next replica.
    Retry,
    /// A STATS fan-out completed; build the fleet reply from this
    /// accumulator (carried out of the `requests` borrow because the
    /// reply also reads router-wide state).
    StatsDone(BTreeMap<String, u64>),
    /// A rejoin replay finished for this backend.
    Rejoined(usize),
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

struct RouterLoop {
    front: FrontEnd,
    wake_rx: TcpStream,
    dial_tx: Sender<Dial>,
    dials: Arc<DialQueue>,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    opts: RouterOptions,
    ring: Ring,
    backends: Vec<Backend>,
    requests: HashMap<u64, Request>,
    next_req: u64,
    retained: Retained,
    /// SOLVE sub-requests dispatched (hedges included); the denominator of
    /// the hedge budget.
    solve_subs_sent: u64,
}

fn router_loop(mut lp: RouterLoop) {
    let mut fds: Vec<PollFd> = Vec::new();
    let mut polled_backends: Vec<usize> = Vec::new();
    let mut admitted: Vec<frontend::Request> = Vec::new();
    loop {
        let now = Instant::now();
        for d in lp.dials.drain() {
            lp.on_dial_done(d, now);
        }
        if lp.shutdown.load(Ordering::SeqCst) {
            // Requests still waiting on backends are abandoned — their
            // clients see the close and retry elsewhere — and buffered
            // replies (the `OK_BYE` in particular) get a bounded grace to
            // flush before everything closes.
            for req in lp.requests.values() {
                lp.front.finish(req.origin.client, Outcome::CloseSilent);
            }
            let deadline = now + Duration::from_millis(500);
            while lp.front.flush_lap() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            return;
        }
        lp.check_backend_timeouts(now);
        lp.check_hedges(now);
        lp.start_due_dials(now);
        // Clients whose requests resolved since the last lap (backend
        // replies, failures) get their write/admit pass here.
        lp.front.resume(&mut admitted);
        lp.dispatch_admitted(&mut admitted, now);

        // Poll set: the waker, the backend connections, then the front
        // end's listener and client connections.
        fds.clear();
        polled_backends.clear();
        fds.push(PollFd::new(poller::fd_of(&lp.wake_rx), Interest::read()));
        for (i, b) in lp.backends.iter().enumerate() {
            if let Some(conn) = &b.conn {
                fds.push(PollFd::new(
                    poller::fd_of(&conn.stream),
                    Interest {
                        readable: true,
                        writable: conn.wants_write(),
                    },
                ));
                polled_backends.push(i);
            }
        }
        let front_at = fds.len();
        lp.front.push_poll_fds(now, &mut fds);

        let timeout = lp
            .nearest_deadline()
            .map(|t| t.saturating_duration_since(now));
        if poller::wait(&mut fds, timeout).is_err() {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        if fds[0].ready.readable || fds[0].ready.hangup {
            poller::drain(&mut lp.wake_rx);
        }
        let now = Instant::now();
        for (&b, fd) in polled_backends.iter().zip(&fds[1..front_at]) {
            lp.service_backend(b, fd.ready, now);
        }
        lp.front.service(&fds[front_at..], now, &mut admitted);
        lp.dispatch_admitted(&mut admitted, now);
    }
}

impl RouterLoop {
    // -- time-driven maintenance --------------------------------------------

    /// Reply-deadline sweep. Each expired sub-request fails *alone* (the
    /// id map correlates whatever else still arrives); only a stuck write
    /// or a hung `HELLO` answer condemns the connection.
    fn check_backend_timeouts(&mut self, now: Instant) {
        for b in 0..self.backends.len() {
            let condemned = self.backends[b].hello_deadline.is_some_and(|d| now >= d)
                || self.backends[b]
                    .conn
                    .as_ref()
                    .is_some_and(|c| c.write_deadline.is_some_and(|d| now >= d));
            if condemned {
                self.backend_failure(b, now);
                continue;
            }
            let expired: Vec<u64> = self.backends[b]
                .inflight
                .iter()
                .filter(|(_, s)| now >= s.expires)
                .map(|(&w, _)| w)
                .collect();
            for wire in expired {
                if let Some(sub) = self.backends[b].inflight.remove(&wire) {
                    self.fail_sub(b, sub, now);
                }
            }
        }
    }

    /// Dispatch hedge duplicates for SOLVE sub-requests that outlived
    /// their backend's adaptive threshold. Each sub-request is considered
    /// exactly once — a hedge that cannot be dispatched (budget spent, no
    /// spare replica, request already hedged) is forfeited rather than
    /// retried, so this sweep never wakes the loop twice for the same sub.
    fn check_hedges(&mut self, now: Instant) {
        if !self.hedging_enabled() {
            return;
        }
        let floor = self.opts.hedge_after;
        let mut due: Vec<u64> = Vec::new();
        for b in &mut self.backends {
            let thr = b.latency.p99().max(floor);
            for sub in b.inflight.values_mut() {
                if sub.hedge_eligible && now >= sub.sent + thr {
                    sub.hedge_eligible = false;
                    due.push(sub.req);
                }
            }
        }
        for rid in due {
            self.try_send_hedge(rid, now);
        }
    }

    fn hedging_enabled(&self) -> bool {
        self.opts.hedge_budget > 0.0 && !self.opts.hedge_after.is_zero()
    }

    /// `hedges_sent + 1 ≤ ceil(hedge_budget · solve_subs_sent)`?
    fn hedge_budget_allows(&self) -> bool {
        let cap = (self.opts.hedge_budget * self.solve_subs_sent as f64).ceil() as u64;
        load(&self.shared.counters.router_hedges_sent) < cap
    }

    fn start_due_dials(&mut self, now: Instant) {
        for (i, b) in self.backends.iter_mut().enumerate() {
            if b.wants_dial(now) {
                b.dialing = true;
                let _ = self.dial_tx.send(Dial {
                    idx: i,
                    addr: b.addr.clone(),
                });
            }
        }
    }

    fn nearest_deadline(&self) -> Option<Instant> {
        let mut best: Option<Instant> = self.front.nearest_deadline();
        let mut consider = |t: Option<Instant>| {
            if let Some(t) = t {
                best = Some(best.map_or(t, |b: Instant| b.min(t)));
            }
        };
        let hedging = self.hedging_enabled();
        let floor = self.opts.hedge_after;
        for b in &self.backends {
            if let Some(conn) = &b.conn {
                consider(conn.write_deadline);
                consider(b.hello_deadline);
                let thr = if hedging {
                    Some(b.latency.p99().max(floor))
                } else {
                    None
                };
                for sub in b.inflight.values() {
                    consider(Some(sub.expires));
                    if let Some(thr) = thr {
                        if sub.hedge_eligible {
                            consider(Some(sub.sent + thr));
                        }
                    }
                }
            } else if !b.dialing {
                consider(Some(b.next_probe));
            }
        }
        best
    }

    fn set_healthy_gauge(&self) {
        let n = self.backends.iter().filter(|b| b.usable()).count();
        self.shared.healthy.store(n, Ordering::Release);
    }

    // -- dialing and rejoin --------------------------------------------------

    fn on_dial_done(&mut self, d: DialDone, now: Instant) {
        self.backends[d.idx].dialing = false;
        match d.result {
            Err(_) => {
                self.backends[d.idx].note_failure(now, self.opts.probe_interval);
            }
            Ok(stream) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    self.backends[d.idx].note_failure(now, self.opts.probe_interval);
                    return;
                }
                let mut conn = Conn::new(stream);
                // The handshake opens every backend connection; the
                // rejoin replays queue only once it is answered.
                conn.enqueue(&encode_frame(
                    op::HELLO,
                    &Builder::new().u16(PROTOCOL_VERSION).build(),
                ));
                self.backends[d.idx].conn = Some(conn);
                self.backends[d.idx].note_connected();
                self.backends[d.idx].hello_deadline =
                    Some(now + self.opts.io_timeout.max(Duration::from_secs(1)));
                bump(&self.shared.counters.router_rejoins, 1);
            }
        }
    }

    /// The `HELLO` answer landed. Anything but `OK_HELLO` agreeing on our
    /// version (`agreed`) is a peer the router cannot talk to — a failed
    /// dial, back to the breaker. Otherwise queue the warm-standby replays (re-LOAD
    /// every retained factor the ring places on this backend) before it
    /// takes new traffic.
    fn finish_negotiation(&mut self, b: usize, agreed: bool, now: Instant) {
        if !agreed {
            self.backend_failure(b, now);
            return;
        }
        self.backends[b].hello_deadline = None;
        let replays: Vec<Vec<u8>> = self
            .retained
            .iter()
            .filter(|(fp, _)| self.ring.replicas(**fp, self.opts.replication).contains(&b))
            .map(|(_, payload)| payload.clone())
            .collect();
        let expires = now + self.sub_request_backstop();
        for payload in replays {
            let rid = self.new_request(Request {
                origin: Origin {
                    client: INTERNAL,
                    cwire: 0,
                },
                kind: Kind::Rejoin { backend: b },
            });
            self.backends[b].rejoining += 1;
            self.send_sub(b, op::LOAD, &payload, SubReq::new(rid, expires, now, false));
        }
        if self.backends[b].rejoining == 0 {
            self.backends[b].finish_rejoin();
        }
        self.set_healthy_gauge();
    }

    /// Backstop for a backend to answer a fan-out/replay sub-request.
    fn sub_request_backstop(&self) -> Duration {
        self.opts
            .io_timeout
            .max(self.opts.deadline_cap)
            .max(Duration::from_secs(1))
    }

    // -- backend I/O ---------------------------------------------------------

    fn send_sub(&mut self, b: usize, opcode: u8, payload: &[u8], sub: SubReq) {
        if sub.solve {
            self.solve_subs_sent += 1;
        }
        let backend = &mut self.backends[b];
        let Some(conn) = backend.conn.as_mut() else {
            return;
        };
        let wire = backend.next_wire;
        backend.next_wire += 1;
        conn.enqueue(&encode_v4(opcode, wire, payload));
        backend.inflight.insert(wire, sub);
    }

    fn service_backend(&mut self, b: usize, ready: poller::Readiness, now: Instant) {
        if ready.readable || ready.hangup {
            let status = {
                let Some(conn) = self.backends[b].conn.as_mut() else {
                    return;
                };
                conn.read_some()
            };
            let status = match status {
                Ok(s) => s,
                Err(_) => {
                    self.backend_failure(b, now);
                    return;
                }
            };
            loop {
                let negotiating = self.backends[b].hello_deadline.is_some();
                let Some(conn) = self.backends[b].conn.as_mut() else {
                    return;
                };
                // Verify in the read buffer, copy the inner payload once.
                let (opcode, reply) = match conn.next_frame() {
                    FrameStep::Incomplete => break,
                    FrameStep::BadLength(_) => {
                        self.backend_failure(b, now);
                        return;
                    }
                    FrameStep::Frame { opcode, payload } if negotiating => {
                        let agreed = opcode == op::OK_HELLO
                            && Cursor::new(payload).u16() == Ok(PROTOCOL_VERSION);
                        self.finish_negotiation(b, agreed, now);
                        continue;
                    }
                    FrameStep::Frame { opcode, payload } => (
                        opcode,
                        unwrap_v4(opcode, payload).map(|(wire, inner)| (wire, inner.to_vec())),
                    ),
                };
                match reply {
                    Ok((wire, payload)) => self.handle_backend_reply(b, wire, opcode, payload, now),
                    // Corrupt frame: the id field cannot be trusted, so
                    // count and drop. The owning sub-request runs into its
                    // own expiry.
                    Err(_) => {
                        bump(&self.shared.backend_crc_rejects, 1);
                    }
                }
            }
            if let Some(conn) = self.backends[b].conn.as_mut() {
                conn.compact();
            }
            if status == ReadStatus::Eof {
                self.backend_failure(b, now);
                return;
            }
        }
        let write_failed = match self.backends[b].conn.as_mut() {
            Some(conn) if ready.writable || conn.wants_write() => {
                conn.try_write(self.opts.io_timeout).is_err()
            }
            _ => false,
        };
        if write_failed {
            self.backend_failure(b, now);
        }
    }

    fn handle_backend_reply(
        &mut self,
        b: usize,
        wire: u64,
        opcode: u8,
        payload: Vec<u8>,
        now: Instant,
    ) {
        let Some(sub) = self.backends[b].inflight.remove(&wire) else {
            // Duplicate, or late after its sub-request expired: correlates
            // to nothing. Ids never reuse, so dropping it is safe and the
            // connection keeps serving — condemning it here would turn one
            // stray frame into a full teardown and a rejoin storm.
            bump(&self.shared.counters.router_orphan_replies, 1);
            return;
        };
        // The adaptive hedge threshold learns from replies that *served* a
        // request, and only from un-hedged SOLVEs. Hedge arms are born
        // past the threshold (counting them skews the window upward), and
        // late losers are exactly the tail the hedge routed around —
        // feeding them back in would walk the threshold up to the stall
        // and the hedger would never fire early again.
        if sub.solve && !sub.hedge && self.requests.contains_key(&sub.req) {
            self.backends[b]
                .latency
                .record(now.saturating_duration_since(sub.sent));
        }
        let rid = sub.req;
        let step = {
            let Some(req) = self.requests.get_mut(&rid) else {
                // Already resolved: a hedge raced this arm and won (or the
                // request failed over past it). A late loser, not an error.
                return;
            };
            match &mut req.kind {
                Kind::Solve { last_err, subs, .. } => {
                    *subs = subs.saturating_sub(1);
                    match opcode {
                        op::OK_SOLVED => {
                            if sub.hedge {
                                bump(&self.shared.counters.router_hedge_wins, 1);
                            }
                            Step::Reply(op::OK_SOLVED, payload)
                        }
                        op::ERR => {
                            let err = backend_err(&payload);
                            let code = err.0;
                            *last_err = Some(err);
                            match code {
                                // Transient-at-this-replica: shed under
                                // load, a stale rejoin, or a backend-side
                                // stall. The factor lives elsewhere too —
                                // go there, once every arm has resolved.
                                ErrorCode::Busy
                                | ErrorCode::UnknownFingerprint
                                | ErrorCode::Timeout => {
                                    if *subs > 0 {
                                        Step::Pending
                                    } else {
                                        Step::Retry
                                    }
                                }
                                _ => {
                                    let (c, m, h) = last_err.clone().expect("just set");
                                    Step::Reply(op::ERR, err_payload(c, &m, h))
                                }
                            }
                        }
                        other => Step::Reply(
                            op::ERR,
                            err_payload(
                                ErrorCode::Internal,
                                &format!("unexpected backend reply opcode 0x{other:02x}"),
                                None,
                            ),
                        ),
                    }
                }
                Kind::Load {
                    outstanding,
                    reply,
                    last_err,
                } => {
                    *outstanding = outstanding.saturating_sub(1);
                    match opcode {
                        op::OK_LOADED if reply.is_none() => *reply = Some(payload),
                        op::OK_LOADED => {}
                        op::ERR => *last_err = Some(backend_err(&payload)),
                        _ => {
                            *last_err = Some((
                                ErrorCode::Internal,
                                "unexpected backend reply".into(),
                                None,
                            ));
                        }
                    }
                    finish_load(*outstanding, reply, last_err)
                }
                Kind::Evict {
                    existed,
                    outstanding,
                    outcomes,
                } => {
                    *outstanding = outstanding.saturating_sub(1);
                    let status = match opcode {
                        op::OK_EVICTED => {
                            let hit = payload.first().copied().unwrap_or(0) != 0;
                            *existed |= hit;
                            u8::from(hit)
                        }
                        op::ERR => match parse_err(&payload) {
                            Ok((Some(ErrorCode::UnknownFingerprint), _, _)) => 0,
                            _ => 2,
                        },
                        _ => 2,
                    };
                    if let Some(slot) = outcomes.iter_mut().find(|(bb, _)| *bb == b) {
                        slot.1 = status;
                    }
                    if *outstanding == 0 {
                        Step::Reply(
                            op::OK_EVICTED,
                            evict_reply(*existed, outcomes, &self.opts.backends),
                        )
                    } else {
                        Step::Pending
                    }
                }
                Kind::Stats { outstanding, acc } => {
                    *outstanding = outstanding.saturating_sub(1);
                    if opcode == op::OK_STATS {
                        accumulate_stats(acc, &payload);
                    }
                    if *outstanding == 0 {
                        Step::StatsDone(std::mem::take(acc))
                    } else {
                        Step::Pending
                    }
                }
                Kind::Rejoin { backend } => Step::Rejoined(*backend),
            }
        };
        self.apply_step(rid, step, now);
    }

    fn apply_step(&mut self, rid: u64, step: Step, now: Instant) {
        match step {
            Step::Pending => {}
            Step::Reply(opcode, payload) => {
                if let Some(req) = self.requests.remove(&rid) {
                    self.finish_client(req.origin, opcode, &payload);
                }
            }
            Step::Retry => {
                bump(&self.shared.counters.router_failovers, 1);
                self.try_send_solve(rid, now);
            }
            Step::StatsDone(acc) => {
                let payload = self.stats_reply_payload(&acc);
                if let Some(req) = self.requests.remove(&rid) {
                    self.finish_client(req.origin, op::OK_STATS, &payload);
                }
            }
            Step::Rejoined(b) => {
                self.requests.remove(&rid);
                if self.backends[b].finish_rejoin() {
                    self.set_healthy_gauge();
                }
            }
        }
    }

    /// Tear down a backend connection: every in-flight sub-request on it
    /// fails over (solves) or counts against its fan-out (everything
    /// else), and the breaker schedules a reconnect probe.
    fn backend_failure(&mut self, b: usize, now: Instant) {
        let drained: Vec<SubReq> = self.backends[b].inflight.drain().map(|(_, s)| s).collect();
        self.backends[b].note_failure(now, self.opts.probe_interval);
        self.set_healthy_gauge();
        for sub in drained {
            self.fail_sub(b, sub, now);
        }
    }

    /// Resolve one failed sub-request — expired individually, or drained
    /// from a torn-down connection — against its request. A hedged SOLVE
    /// with another arm still running stays pending; failover happens only
    /// once every arm has resolved.
    fn fail_sub(&mut self, b: usize, sub: SubReq, now: Instant) {
        let hint = retry_hint_ms(self.opts.probe_interval);
        let rid = sub.req;
        let step = {
            let Some(req) = self.requests.get_mut(&rid) else {
                return;
            };
            match &mut req.kind {
                Kind::Solve { last_err, subs, .. } => {
                    *subs = subs.saturating_sub(1);
                    *last_err = Some((
                        ErrorCode::Busy,
                        format!("backend {} unreachable", self.backends[b].addr),
                        Some(hint),
                    ));
                    if *subs > 0 {
                        Step::Pending
                    } else {
                        Step::Retry
                    }
                }
                Kind::Load {
                    outstanding,
                    reply,
                    last_err,
                } => {
                    *outstanding = outstanding.saturating_sub(1);
                    if last_err.is_none() {
                        *last_err = Some((
                            ErrorCode::Busy,
                            format!("backend {} unreachable", self.backends[b].addr),
                            Some(hint),
                        ));
                    }
                    finish_load(*outstanding, reply, last_err)
                }
                Kind::Evict {
                    existed,
                    outstanding,
                    outcomes,
                } => {
                    *outstanding = outstanding.saturating_sub(1);
                    if *outstanding == 0 {
                        Step::Reply(
                            op::OK_EVICTED,
                            evict_reply(*existed, outcomes, &self.opts.backends),
                        )
                    } else {
                        Step::Pending
                    }
                }
                Kind::Stats { outstanding, acc } => {
                    *outstanding = outstanding.saturating_sub(1);
                    if *outstanding == 0 {
                        Step::StatsDone(std::mem::take(acc))
                    } else {
                        Step::Pending
                    }
                }
                // The replay died with its sub-request; account for it so a
                // Standby backend still promotes (solve failover covers a
                // replica that genuinely lacks the factor).
                Kind::Rejoin { backend } => Step::Rejoined(*backend),
            }
        };
        self.apply_step(rid, step, now);
    }

    // -- solve forwarding / failover ----------------------------------------

    fn try_send_solve(&mut self, rid: u64, now: Instant) {
        enum Action {
            Send {
                b: usize,
                frame_payload: Vec<u8>,
                expires: Instant,
            },
            Fail(ErrInfo),
            Gone,
        }
        let action = {
            let Some(req) = self.requests.get_mut(&rid) else {
                return;
            };
            if !self.front.is_open(req.origin.client) {
                Action::Gone
            } else {
                let Kind::Solve {
                    payload,
                    replicas,
                    next,
                    deadline,
                    last_err,
                    subs,
                    ..
                } = &mut req.kind
                else {
                    return;
                };
                if now >= *deadline {
                    Action::Fail((
                        ErrorCode::Deadline,
                        "deadline expired during routing".into(),
                        None,
                    ))
                } else {
                    let mut chosen = None;
                    let mut skipped = 0u64;
                    while *next < replicas.len() {
                        let b = replicas[*next];
                        *next += 1;
                        if self.backends[b].usable() {
                            chosen = Some(b);
                            break;
                        }
                        // routing around a down replica is a failover even
                        // when no request ever reached it
                        skipped += 1;
                    }
                    bump(&self.shared.counters.router_failovers, skipped);
                    match chosen {
                        Some(b) => {
                            *subs += 1;
                            let remaining =
                                deadline.saturating_duration_since(now).as_millis() as u64;
                            let mut fwd = payload.clone();
                            fwd[16..24].copy_from_slice(&remaining.max(1).to_le_bytes());
                            Action::Send {
                                b,
                                frame_payload: fwd,
                                expires: *deadline
                                    + self.opts.io_timeout.max(Duration::from_secs(1)),
                            }
                        }
                        None => Action::Fail(last_err.clone().unwrap_or((
                            ErrorCode::Busy,
                            "no healthy replica for fingerprint".into(),
                            Some(retry_hint_ms(self.opts.probe_interval)),
                        ))),
                    }
                }
            }
        };
        match action {
            Action::Gone => {
                self.requests.remove(&rid);
            }
            Action::Fail((code, msg, hint)) => {
                if let Some(req) = self.requests.remove(&rid) {
                    self.reply_err(req.origin, code, &msg, hint);
                }
            }
            Action::Send {
                b,
                frame_payload,
                expires,
            } => {
                self.send_sub(
                    b,
                    op::SOLVE,
                    &frame_payload,
                    SubReq::new(rid, expires, now, true),
                );
            }
        }
    }

    /// Duplicate a slow SOLVE to the next replica in ring order: the first
    /// valid reply wins, the loser resolves by request id without harm.
    /// The remaining deadline is rewritten for the hedge hop exactly as it
    /// is for a failover. At most one hedge per request, and only within
    /// the hedge budget.
    fn try_send_hedge(&mut self, rid: u64, now: Instant) {
        if !self.hedge_budget_allows() {
            return;
        }
        struct Hedge {
            b: usize,
            frame_payload: Vec<u8>,
            expires: Instant,
        }
        let action = {
            let Some(req) = self.requests.get_mut(&rid) else {
                return;
            };
            let Kind::Solve {
                payload,
                replicas,
                next,
                deadline,
                subs,
                hedged,
                ..
            } = &mut req.kind
            else {
                return;
            };
            if *hedged || now >= *deadline {
                None
            } else {
                let mut chosen = None;
                let mut skipped = 0u64;
                let mut i = *next;
                while i < replicas.len() {
                    let b = replicas[i];
                    i += 1;
                    if self.backends[b].usable() {
                        chosen = Some(b);
                        break;
                    }
                    skipped += 1;
                }
                chosen.map(|b| {
                    // replicas skipped here are consumed exactly as the
                    // failover path consumes them, so count them the same
                    bump(&self.shared.counters.router_failovers, skipped);
                    *next = i;
                    *hedged = true;
                    *subs += 1;
                    let remaining = deadline.saturating_duration_since(now).as_millis() as u64;
                    let mut fwd = payload.clone();
                    fwd[16..24].copy_from_slice(&remaining.max(1).to_le_bytes());
                    Hedge {
                        b,
                        frame_payload: fwd,
                        expires: *deadline + self.opts.io_timeout.max(Duration::from_secs(1)),
                    }
                })
            }
        };
        if let Some(h) = action {
            bump(&self.shared.counters.router_hedges_sent, 1);
            self.send_sub(
                h.b,
                op::SOLVE,
                &h.frame_payload,
                SubReq::new_hedge(rid, h.expires, now),
            );
        }
    }

    // -- client I/O ----------------------------------------------------------

    /// Complete one client request: the reply goes back enveloped under
    /// the client's wire request id.
    fn finish_client(&mut self, to: Origin, opcode: u8, payload: &[u8]) {
        let frame = encode_v4(opcode, to.cwire, payload);
        self.front.finish(to.client, Outcome::Reply(frame));
    }

    // -- request dispatch ----------------------------------------------------

    fn new_request(&mut self, req: Request) -> u64 {
        let rid = self.next_req;
        self.next_req += 1;
        self.requests.insert(rid, req);
        rid
    }

    fn reply_err(&mut self, to: Origin, code: ErrorCode, msg: &str, hint: Option<u64>) {
        self.finish_client(to, op::ERR, &err_payload(code, msg, hint));
    }

    fn dispatch_admitted(&mut self, admitted: &mut Vec<frontend::Request>, now: Instant) {
        for req in admitted.drain(..) {
            self.dispatch_client(req, now);
        }
    }

    fn dispatch_client(&mut self, req: frontend::Request, now: Instant) {
        bump(&self.shared.counters.router_requests, 1);
        let to = Origin {
            client: req.conn_id,
            cwire: req.req_id,
        };
        match req.opcode {
            op::SOLVE => self.dispatch_solve(to, req.payload, now),
            op::LOAD => self.dispatch_load(to, req.payload, now),
            op::EVICT => self.dispatch_evict(to, &req.payload, now),
            op::STATS => self.dispatch_stats(to, now),
            op::SHUTDOWN => {
                self.shutdown.store(true, Ordering::SeqCst);
                let bye = encode_v4(op::OK_BYE, to.cwire, &[]);
                self.front.finish(to.client, Outcome::ReplyThenClose(bye));
            }
            other => self.reply_err(
                to,
                ErrorCode::UnknownOpcode,
                &format!("unknown request opcode 0x{other:02x}"),
                None,
            ),
        }
    }

    fn dispatch_solve(&mut self, to: Origin, payload: Vec<u8>, now: Instant) {
        if payload.len() < 32 {
            self.reply_err(to, ErrorCode::Malformed, "short SOLVE payload", None);
            return;
        }
        let fp = Fingerprint::from_bytes(payload[..16].try_into().expect("16 bytes"));
        let client_ms = u64::from_le_bytes(payload[16..24].try_into().expect("8 bytes"));
        let budget = effective_budget(client_ms, self.opts.deadline_cap);
        let replicas = self.ring.replicas(fp, self.opts.replication);
        let rid = self.new_request(Request {
            origin: to,
            kind: Kind::Solve {
                payload,
                replicas,
                next: 0,
                deadline: now + budget,
                last_err: None,
                subs: 0,
                hedged: false,
            },
        });
        self.try_send_solve(rid, now);
    }

    fn dispatch_load(&mut self, to: Origin, payload: Vec<u8>, now: Instant) {
        let fp = match load_fingerprint(&payload) {
            Ok(fp) => fp,
            Err(msg) => {
                self.reply_err(to, ErrorCode::Malformed, &msg, None);
                return;
            }
        };
        let replicas = self.ring.replicas(fp, self.opts.replication);
        let targets: Vec<usize> = replicas
            .iter()
            .copied()
            .filter(|&b| self.backends[b].usable())
            .collect();
        if targets.is_empty() {
            let hint = retry_hint_ms(self.opts.probe_interval);
            self.reply_err(
                to,
                ErrorCode::Busy,
                "no healthy replica to load onto",
                Some(hint),
            );
            return;
        }
        self.retained.insert(fp, payload.clone());
        let rid = self.new_request(Request {
            origin: to,
            kind: Kind::Load {
                outstanding: targets.len(),
                reply: None,
                last_err: None,
            },
        });
        let expires = now + self.sub_request_backstop();
        for b in targets {
            self.send_sub(b, op::LOAD, &payload, SubReq::new(rid, expires, now, false));
        }
    }

    fn dispatch_evict(&mut self, to: Origin, payload: &[u8], now: Instant) {
        let fp = {
            let mut c = Cursor::new(payload);
            match c.fingerprint().and_then(|fp| c.finish().map(|_| fp)) {
                Ok(fp) => fp,
                Err(msg) => {
                    self.reply_err(to, ErrorCode::Malformed, &msg, None);
                    return;
                }
            }
        };
        self.retained.remove(fp);
        let replicas = self.ring.replicas(fp, self.opts.replication);
        let outcomes: Vec<(usize, u8)> = replicas.iter().map(|&b| (b, 2u8)).collect();
        let targets: Vec<usize> = replicas
            .iter()
            .copied()
            .filter(|&b| self.backends[b].usable())
            .collect();
        if targets.is_empty() {
            let payload = evict_reply(false, &outcomes, &self.opts.backends);
            self.finish_client(to, op::OK_EVICTED, &payload);
            return;
        }
        let rid = self.new_request(Request {
            origin: to,
            kind: Kind::Evict {
                existed: false,
                outstanding: targets.len(),
                outcomes,
            },
        });
        let expires = now + self.sub_request_backstop();
        for b in targets {
            self.send_sub(
                b,
                op::EVICT,
                &fp.to_bytes(),
                SubReq::new(rid, expires, now, false),
            );
        }
    }

    fn dispatch_stats(&mut self, to: Origin, now: Instant) {
        let targets: Vec<usize> = (0..self.backends.len())
            .filter(|&b| self.backends[b].usable())
            .collect();
        if targets.is_empty() {
            let payload = self.stats_reply_payload(&BTreeMap::new());
            self.finish_client(to, op::OK_STATS, &payload);
            return;
        }
        let rid = self.new_request(Request {
            origin: to,
            kind: Kind::Stats {
                outstanding: targets.len(),
                acc: BTreeMap::new(),
            },
        });
        let expires = now + self.sub_request_backstop();
        for b in targets {
            self.send_sub(b, op::STATS, &[], SubReq::new(rid, expires, now, false));
        }
    }

    /// The fleet STATS view: summed backend counters plus `router_*` keys.
    fn stats_reply_payload(&self, acc: &BTreeMap<String, u64>) -> Vec<u8> {
        let fleet = acc.iter().map(|(key, val)| (key.as_str(), *val));
        let pairs: Vec<(&str, u64)> = fleet.chain(self.stats_pairs()).collect();
        encode_stats(&pairs)
    }
}

// ---------------------------------------------------------------------------
// Pure helpers
// ---------------------------------------------------------------------------

/// Hint handed to clients when no replica is reachable (or the router is
/// at its connection limit): roughly one probe cycle out.
fn retry_hint_ms(probe_interval: Duration) -> u64 {
    (probe_interval.as_millis() as u64).max(1) * 2
}

/// The solve budget: client ask clamped to the router cap, the cap alone
/// when the client sent none, and a one-minute backstop when both are zero
/// (the failover timer needs *some* horizon).
fn effective_budget(client_ms: u64, cap: Duration) -> Duration {
    let client = (client_ms > 0).then(|| Duration::from_millis(client_ms));
    let cap = (!cap.is_zero()).then_some(cap);
    let budget = client.into_iter().chain(cap).min();
    budget.unwrap_or(Duration::from_secs(60))
}

/// A backend's `ERR` payload as an error triple; an undecodable one (or
/// an unknown code) becomes `Internal`.
fn backend_err(payload: &[u8]) -> ErrInfo {
    match parse_err(payload) {
        Ok((code, msg, hint)) => (code.unwrap_or(ErrorCode::Internal), msg, hint),
        Err(e) => (
            ErrorCode::Internal,
            format!("undecodable backend error: {e}"),
            None,
        ),
    }
}

/// Resolve a `LOAD` fan-out: `Pending` while replies are outstanding, the
/// first `OK_LOADED` when any replica succeeded, else the last error.
fn finish_load(outstanding: usize, reply: &Option<Vec<u8>>, last_err: &Option<ErrInfo>) -> Step {
    if outstanding > 0 {
        return Step::Pending;
    }
    match reply {
        Some(ok) => Step::Reply(op::OK_LOADED, ok.clone()),
        None => {
            let (code, msg, hint) = last_err.clone().unwrap_or((
                ErrorCode::Internal,
                "load fan-out resolved without any reply".into(),
                None,
            ));
            Step::Reply(op::ERR, err_payload(code, &msg, hint))
        }
    }
}

/// Build the router `OK_EVICTED` payload: aggregate `existed`, then the
/// per-replica outcome trailer (`u8 count`, then per replica `u16 addrlen`,
/// addr bytes, `u8 status`).
fn evict_reply(existed: bool, outcomes: &[(usize, u8)], addrs: &[String]) -> Vec<u8> {
    let mut b = Builder::new()
        .u8(u8::from(existed))
        .u8(outcomes.len() as u8);
    for &(idx, status) in outcomes {
        let addr = addrs.get(idx).map(String::as_str).unwrap_or("?");
        b = b.u16(addr.len() as u16).bytes(addr.as_bytes()).u8(status);
    }
    b.build()
}

/// Sum one backend's `OK_STATS` payload into the fleet accumulator.
/// Undecodable tails are simply truncated — a partial sum beats no reply.
fn accumulate_stats(acc: &mut BTreeMap<String, u64>, payload: &[u8]) {
    for (key, val) in decode_stats(payload).0 {
        *acc.entry(key).or_insert(0) += val;
    }
}

/// Compute the fingerprint a backend will assign to this LOAD payload —
/// the same digest over the same arrays — so placement is decided at the
/// edge without building the matrix.
fn load_fingerprint(payload: &[u8]) -> Result<Fingerprint, String> {
    let (nrows, ncols, colptr, rowidx, values) = decode_load(payload)?;
    Ok(Fingerprint::of_parts(
        nrows, ncols, &colptr, &rowidx, &values,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolv_matrix::gen;

    #[test]
    fn effective_budget_clamps() {
        let cap = Duration::from_secs(30);
        assert_eq!(effective_budget(0, cap), cap);
        assert_eq!(effective_budget(500, cap), Duration::from_millis(500));
        assert_eq!(effective_budget(120_000, cap), cap);
        assert_eq!(effective_budget(0, Duration::ZERO), Duration::from_secs(60));
        assert_eq!(
            effective_budget(7, Duration::ZERO),
            Duration::from_millis(7)
        );
    }

    #[test]
    fn load_fingerprint_matches_matrix_digest() {
        let a = gen::grid2d_laplacian(6, 6);
        let payload = Builder::new()
            .u64(a.nrows() as u64)
            .u64(a.ncols() as u64)
            .u64(a.nnz() as u64)
            .usize_slice(a.colptr())
            .usize_slice(a.rowidx())
            .f64_slice(a.values())
            .build();
        assert_eq!(
            load_fingerprint(&payload).unwrap(),
            Fingerprint::of_matrix(&a)
        );
        assert!(load_fingerprint(&payload[..20]).is_err());
    }

    #[test]
    fn evict_reply_trailer_encodes_addrs_and_statuses() {
        let addrs = vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()];
        let payload = evict_reply(true, &[(1, 1), (0, 2)], &addrs);
        let mut c = Cursor::new(&payload);
        assert_eq!(c.u8().unwrap(), 1, "existed");
        assert_eq!(c.u8().unwrap(), 2, "count");
        let l = c.u16().unwrap() as usize;
        assert_eq!(c.bytes(l).unwrap(), b"127.0.0.1:2");
        assert_eq!(c.u8().unwrap(), 1, "evicted");
        let l = c.u16().unwrap() as usize;
        assert_eq!(c.bytes(l).unwrap(), b"127.0.0.1:1");
        assert_eq!(c.u8().unwrap(), 2, "unreachable");
        c.finish().unwrap();
    }

    #[test]
    fn stats_accumulator_sums_across_backends() {
        let pay = |v: u64| Builder::new().u64(1).u16(5).bytes(b"hello").u64(v).build();
        let mut acc = BTreeMap::new();
        accumulate_stats(&mut acc, &pay(3));
        accumulate_stats(&mut acc, &pay(4));
        assert_eq!(acc.get("hello"), Some(&7));
        // truncated payloads contribute what they can without panicking
        accumulate_stats(&mut acc, &pay(1)[..6]);
        assert_eq!(acc.get("hello"), Some(&7));
    }
}
