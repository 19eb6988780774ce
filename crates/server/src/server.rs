//! TCP front end: readiness-driven event loop, solver-worker pool, watchdog.
//!
//! One event-loop thread owns every socket: it polls a wake channel plus
//! the client-facing [`FrontEnd`] (listener and all connections) through
//! the [`poller`] abstraction, feeds the requests the front end admits into
//! a job channel, and hands finished replies back to it. A fixed pool of
//! solver workers blocks on that channel — a worker blocked inside the
//! micro-batcher is exactly what lets concurrent requests share a blocked
//! solve, so `workers` should be at least the target batch size. Requests
//! pipelined on one connection execute concurrently across workers and
//! their replies flush in completion order, correlated by request ID.
//!
//! Idle cost is near zero by construction: the loop sleeps in `poll(2)`
//! until a socket or the waker fires (with a timeout only when a slow-peer
//! or write deadline is actually pending), workers sleep in `recv()`, and
//! the watchdog sleeps in `recv()` on worker-exit notices. No thread wakes
//! on a period.
//!
//! Robustness contract (exercised in `tests/service.rs` and
//! `tests/chaos.rs`). Everything up to a verified request — handshake,
//! refusals, bad lengths, checksums, slow peers — is the front end's and
//! documented in `frontend.rs`; from there on:
//!
//! * a decodable frame with a bad payload (truncated arrays, wrong RHS
//!   length, unknown fingerprint, unknown opcode) gets a structured `ERR`
//!   reply and the connection stays open;
//! * a panic anywhere in request handling is caught at the dispatch
//!   boundary and answered with `ERR Internal`; a panic that escapes a
//!   worker thread entirely (e.g. the injected `worker.panic` fault) is
//!   noticed by the watchdog, which respawns the worker, counts it in
//!   `STATS worker_respawns`, and closes the connection whose request died
//!   with the worker so its client can retry on a fresh stream;
//! * `SHUTDOWN` (or [`RunningServer::shutdown`]) flushes pending replies,
//!   stops the loop, drains the workers, and joins every thread.
//!
//! Fault-injection sites ([`FaultSite`]) on the request path: `conn` at
//! accept and `read` per parsed frame live in the front end, `write` and
//! `worker` in the workers here, `solve`/`factor` in the engine.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trisolv_matrix::CscMatrix;

use crate::conn::Outcome;
use crate::engine::{Engine, EngineError, EngineOptions};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::frontend::{FrontEnd, FrontEndConfig, Request};
use crate::poller::{self, Interest, PollFd, Waker};
use crate::protocol::{
    decode_load, encode_stats, encode_v4, err_payload, op, Builder, Cursor, ErrorCode,
    SOLVE_FLAG_CERTIFIED,
};
use crate::signal;
use crate::store::{FactorStore, StoreOptions};

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Solver worker threads (the event loop handles all connections, so
    /// this no longer bounds concurrent clients). Should be ≥ the batching
    /// `max_batch` for full-width batches to form.
    pub workers: usize,
    /// Engine (cache + batcher + executor) configuration.
    pub engine: EngineOptions,
    /// Fault-injection plan (empty in production; see [`FaultPlan`]).
    pub fault: FaultPlan,
    /// Slow-peer guard: once a frame's first byte arrives, the rest of the
    /// frame must arrive within this budget, and replies must be accepted
    /// this fast. Zero disables the guard.
    pub io_timeout: Duration,
    /// Hard cap on client-requested SOLVE deadlines; also the default
    /// deadline when a client sends none. Zero means uncapped.
    pub deadline_cap: Duration,
    /// Maximum concurrent connections; extras get `ERR Busy` and a close.
    /// Zero means unlimited.
    pub max_conns: usize,
    /// Per-connection pipelining cap: frames admitted while earlier
    /// requests on the same connection are still in flight. Past the cap
    /// the loop stops reading the socket, so flooding clients block on TCP.
    pub max_pipeline: usize,
    /// Crash-consistent factor persistence (`--persist-dir`): snapshot
    /// sealed cache entries to this store and warm-restart from it at
    /// spawn. `None` (the default) keeps the cache memory-only.
    pub persist: Option<StoreOptions>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 32,
            engine: EngineOptions::default(),
            fault: FaultPlan::none(),
            io_timeout: Duration::from_secs(10),
            deadline_cap: Duration::from_secs(30),
            max_conns: 0,
            max_pipeline: 64,
            persist: None,
        }
    }
}

/// Handle to a spawned server; dropping it shuts the server down.
pub struct RunningServer {
    local_addr: SocketAddr,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    threads: Vec<JoinHandle<()>>,
}

/// Completions mailbox: workers (and the watchdog) push `(conn_id,
/// outcome)` pairs, the loop drains them into [`FrontEnd::finish`]; every
/// push wakes the loop out of `poll`.
struct CompletionQueue {
    items: Mutex<Vec<(u64, Outcome)>>,
    waker: Arc<Waker>,
}

impl CompletionQueue {
    fn push(&self, conn_id: u64, outcome: Outcome) {
        let mut items = self.items.lock().unwrap_or_else(|e| e.into_inner());
        items.push((conn_id, outcome));
        drop(items);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<(u64, Outcome)> {
        std::mem::take(&mut *self.items.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// A worker thread's exit report, sent from a drop guard so it fires on
/// panic and clean return alike.
struct WorkerExit {
    slot: usize,
    panicked: bool,
}

struct ExitNotice {
    tx: Sender<WorkerExit>,
    slot: usize,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        let _ = self.tx.send(WorkerExit {
            slot: self.slot,
            panicked: std::thread::panicking(),
        });
    }
}

/// Everything a solver worker needs.
struct WorkerCtx {
    jobs: Arc<Mutex<Receiver<Request>>>,
    completions: Arc<CompletionQueue>,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    fault: FaultPlan,
    deadline_cap: Duration,
    exits: Sender<WorkerExit>,
    /// Per-slot `conn_id + 1` of the request being served (0 = idle), so
    /// the watchdog knows which connection a dead worker orphaned.
    current: Arc<Vec<AtomicU64>>,
}

impl WorkerCtx {
    fn clone_for_respawn(&self) -> WorkerCtx {
        WorkerCtx {
            jobs: Arc::clone(&self.jobs),
            completions: Arc::clone(&self.completions),
            engine: Arc::clone(&self.engine),
            shutdown: Arc::clone(&self.shutdown),
            fault: self.fault.clone(),
            deadline_cap: self.deadline_cap,
            exits: self.exits.clone(),
            current: Arc::clone(&self.current),
        }
    }
}

/// Everything the event loop owns.
struct LoopCtx {
    front: FrontEnd,
    wake_rx: TcpStream,
    jobs_tx: Sender<Request>,
    completions: Arc<CompletionQueue>,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
}

/// The service entry point.
pub struct Server;

impl Server {
    /// Bind, spawn the event loop, worker pool, and watchdog, and return
    /// immediately.
    pub fn spawn(opts: ServerOptions) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // Open the store (and run its recovery scan inside the engine)
        // before accepting any traffic: a warm-restarted server is
        // indistinguishable from one that never died by the time the first
        // connection lands.
        let store = match &opts.persist {
            Some(p) => Some(FactorStore::open(p.clone(), opts.fault.clone())?),
            None => None,
        };
        let engine = Arc::new(Engine::with_store(opts.engine, opts.fault.clone(), store));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (waker, wake_rx) = poller::wake_pair()?;
        let waker = Arc::new(waker);
        let (jobs_tx, jobs_rx) = mpsc::channel::<Request>();
        let completions = Arc::new(CompletionQueue {
            items: Mutex::new(Vec::new()),
            waker: Arc::clone(&waker),
        });
        let (exit_tx, exit_rx) = mpsc::channel::<WorkerExit>();
        let nworkers = opts.workers.max(1);
        let current: Arc<Vec<AtomicU64>> =
            Arc::new((0..nworkers).map(|_| AtomicU64::new(0)).collect());

        let wctx = WorkerCtx {
            jobs: Arc::new(Mutex::new(jobs_rx)),
            completions: Arc::clone(&completions),
            engine: Arc::clone(&engine),
            shutdown: Arc::clone(&shutdown),
            fault: opts.fault.clone(),
            deadline_cap: opts.deadline_cap,
            exits: exit_tx,
            current,
        };
        let workers: Vec<Option<JoinHandle<()>>> = (0..nworkers)
            .map(|slot| Some(spawn_worker(wctx.clone_for_respawn(), slot)))
            .collect();

        let mut threads = Vec::with_capacity(2);
        threads.push(
            std::thread::Builder::new()
                .name("tsv-watchdog".to_string())
                .spawn(move || watchdog_loop(wctx, exit_rx, workers))?,
        );
        let front = FrontEnd::new(
            listener,
            FrontEndConfig {
                io_timeout: opts.io_timeout,
                max_conns: opts.max_conns,
                max_pipeline: opts.max_pipeline,
                busy_retry_ms: engine.retry_after_ms(),
                fault: opts.fault,
            },
            Arc::clone(engine.front_stats()),
        );
        let lctx = LoopCtx {
            front,
            wake_rx,
            jobs_tx,
            completions,
            engine: Arc::clone(&engine),
            shutdown: Arc::clone(&shutdown),
        };
        threads.push(
            std::thread::Builder::new()
                .name("tsv-evloop".to_string())
                .spawn(move || event_loop(lctx))?,
        );
        Ok(RunningServer {
            local_addr,
            engine,
            shutdown,
            waker,
            threads,
        })
    }
}

impl RunningServer {
    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared engine (for in-process inspection and benchmarks).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Route SIGTERM/SIGINT into this server's graceful-shutdown path
    /// (flush snapshots, drain lanes, exit the loop). Changes process-wide
    /// signal disposition — intended for the `serve` CLI, not for
    /// in-process test servers.
    pub fn install_signal_handlers(&self) {
        signal::install(self.waker.raw_fd());
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

    /// Block until the server shuts down — via a `SHUTDOWN` request or a
    /// [`RunningServer::shutdown`] call from another thread — joining every
    /// thread. Unlike [`RunningServer::join`], this does not itself request
    /// shutdown; it is what `trisolv serve` parks on.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

fn event_loop(mut ctx: LoopCtx) {
    let mut fds: Vec<PollFd> = Vec::new();
    let mut admitted: Vec<Request> = Vec::new();
    loop {
        // Finished work first: hand completions to the front end, which
        // admits buffered frames into the freed pipeline slots, flushes,
        // and reaps.
        apply_completions(&ctx.completions, &mut ctx.front);
        ctx.front.resume(&mut admitted);
        dispatch_admitted(&ctx.jobs_tx, &mut admitted);
        if ctx.shutdown.load(Ordering::SeqCst) || signal::shutdown_requested() {
            // let in-flight requests resolve and their replies flush
            // (bounded), so `SHUTDOWN` clients actually see `OK_BYE`; the
            // only sleep in this loop runs here, during teardown
            let deadline = Instant::now() + Duration::from_millis(500);
            while ctx.front.flush_lap() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
                apply_completions(&ctx.completions, &mut ctx.front);
            }
            // a signal (or SHUTDOWN frame) must not strand a queued
            // snapshot: wait for the write-behind thread to drain
            ctx.engine.flush_store(Duration::from_secs(5));
            return; // drops jobs_tx: workers see disconnect and exit
        }

        // Rebuild the level-triggered poll set: the waker, then the front
        // end's listener and connections.
        fds.clear();
        fds.push(PollFd::new(poller::fd_of(&ctx.wake_rx), Interest::read()));
        let now = Instant::now();
        ctx.front.push_poll_fds(now, &mut fds);

        // Sleep until readiness, the waker, or the nearest deadline. With
        // no deadlines pending this blocks indefinitely: an idle server
        // makes zero wakeups.
        let timeout = ctx
            .front
            .nearest_deadline()
            .map(|d| d.saturating_duration_since(now));
        if poller::wait(&mut fds, timeout).is_err() {
            // poll(2) failures other than EINTR (absorbed by the poller)
            // are exotic; back off so a persistent one cannot spin the loop
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }

        if fds[0].ready.readable || fds[0].ready.hangup {
            poller::drain(&mut ctx.wake_rx);
        }
        ctx.front.service(&fds[1..], Instant::now(), &mut admitted);
        dispatch_admitted(&ctx.jobs_tx, &mut admitted);
    }
}

/// Hand queued completions to the front end.
fn apply_completions(completions: &CompletionQueue, front: &mut FrontEnd) {
    for (conn_id, outcome) in completions.drain() {
        front.finish(conn_id, outcome);
    }
}

/// Feed the requests the front end admitted to the workers. A send only
/// fails once the workers are gone, i.e. during shutdown, when the
/// requests are dropped with their connections anyway.
fn dispatch_admitted(jobs_tx: &Sender<Request>, admitted: &mut Vec<Request>) {
    for req in admitted.drain(..) {
        let _ = jobs_tx.send(req);
    }
}

// ---------------------------------------------------------------------------
// Worker pool + watchdog
// ---------------------------------------------------------------------------

fn spawn_worker(ctx: WorkerCtx, slot: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("tsv-worker-{slot}"))
        .spawn(move || worker_loop(&ctx, slot))
        .expect("spawn solver worker thread")
}

fn worker_loop(ctx: &WorkerCtx, slot: usize) {
    // Fires on every exit path — panic included — so the watchdog never
    // has to poll `is_finished()`.
    let _notice = ExitNotice {
        tx: ctx.exits.clone(),
        slot,
    };
    loop {
        // Block with no timeout: an idle pool makes zero wakeups (the old
        // `recv_timeout(POLL)` burned CPU on every idle worker, forever).
        // Shutdown arrives as a channel disconnect when the event loop
        // drops its Sender. Poison recovery: a sibling that panicked while
        // holding the lock left the receiver itself intact.
        let job = {
            let guard = ctx.jobs.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok(req) = job else { return };
        ctx.current[slot].store(req.conn_id + 1, Ordering::Release);
        // The worker fault site panics *outside* dispatch isolation on
        // purpose: it simulates a worker-killing bug and must be
        // survivable only via the watchdog respawn path.
        ctx.fault.trip(FaultSite::Worker);
        let outcome = serve_job(ctx, &req);
        ctx.current[slot].store(0, Ordering::Release);
        ctx.completions.push(req.conn_id, outcome);
    }
}

/// Dispatch one request and shape the reply, including the `write` fault
/// site (drop/torn/stall) that used to live at the socket write.
fn serve_job(ctx: &WorkerCtx, req: &Request) -> Outcome {
    // Dispatch isolation: any panic that slips past the engine's own
    // guards becomes ERR Internal on this connection, not a dead worker.
    let dispatched = panic::catch_unwind(AssertUnwindSafe(|| {
        dispatch(
            &ctx.engine,
            &ctx.shutdown,
            ctx.deadline_cap,
            req.opcode,
            &req.payload,
            req.received,
        )
    }))
    .unwrap_or_else(|_| bad(ErrorCode::Internal, "request handler panicked"));
    let (opcode, payload, close) = match dispatched {
        Dispatch::Reply(opcode, reply) => (opcode, reply, false),
        Dispatch::Bye => (op::OK_BYE, Vec::new(), true),
    };
    // The reply echoes the request ID and carries the checksum trailer;
    // the frame is sealed *before* the write fault site so an injected
    // bitflip lands after the checksum — silent wire corruption the
    // receiver must catch.
    let mut frame = encode_v4(opcode, req.req_id, &payload);
    // The write fault site: a stall is served in place, a drop closes
    // without writing, a torn write queues a truncated prefix of the real
    // frame and then closes — exactly the partial-frame garbage a crashing
    // server would leave on the wire — and a bitflip flips one byte of the
    // encoded frame past the length prefix, leaving the connection open.
    match ctx.fault.trip(FaultSite::Write) {
        Some(FaultAction::Drop) => return Outcome::CloseSilent,
        Some(FaultAction::Torn) => {
            frame.truncate((frame.len() / 2).max(1));
            return Outcome::ReplyThenClose(frame);
        }
        Some(FaultAction::BitFlip) => {
            // flip inside opcode+payload, never the length prefix (that
            // would desynchronize the stream, which is `torn`'s job)
            let at = 4 + (frame.len() - 4) / 2;
            frame[at] ^= 0x20;
        }
        _ => {}
    }
    if close {
        Outcome::ReplyThenClose(frame)
    } else {
        Outcome::Reply(frame)
    }
}

/// Supervise the worker pool on exit notices: a worker that dies by panic
/// (a bug that escaped dispatch isolation, or the injected `worker.panic`
/// fault) is joined, its orphaned connection is closed, and a replacement
/// is spawned so the pool never silently shrinks. Clean exits (shutdown
/// disconnect) are not respawned; the watchdog leaves when the pool is
/// empty.
fn watchdog_loop(
    ctx: WorkerCtx,
    exits: Receiver<WorkerExit>,
    mut workers: Vec<Option<JoinHandle<()>>>,
) {
    let mut alive = workers.len();
    while alive > 0 {
        let Ok(exit) = exits.recv() else { break };
        if let Some(handle) = workers[exit.slot].take() {
            let _ = handle.join();
        }
        if exit.panicked && !ctx.shutdown.load(Ordering::SeqCst) {
            ctx.engine.note_worker_respawn();
            let held = ctx.current[exit.slot].swap(0, Ordering::AcqRel);
            if held != 0 {
                // the reply will never come: close that connection (after
                // what is already buffered) so its client's retry ladder
                // takes over on a fresh stream
                ctx.completions.push(held - 1, Outcome::CloseSilent);
            }
            workers[exit.slot] = Some(spawn_worker(ctx.clone_for_respawn(), exit.slot));
        } else {
            alive -= 1;
        }
    }
    for handle in workers.iter_mut().filter_map(Option::take) {
        let _ = handle.join();
    }
}

// ---------------------------------------------------------------------------
// Frame building + dispatch
// ---------------------------------------------------------------------------

enum Dispatch {
    /// A reply frame (an `ERR` included) to send on the connection.
    Reply(u8, Vec<u8>),
    Bye,
}

/// An `ERR` reply with no retry hint.
fn bad(code: ErrorCode, msg: impl AsRef<str>) -> Dispatch {
    Dispatch::Reply(op::ERR, err_payload(code, msg.as_ref(), None))
}

/// An `ERR` reply for an engine failure (carries the Busy retry hint).
fn engine_err(e: &EngineError) -> Dispatch {
    let retry_after_ms = match e {
        EngineError::Busy { retry_after_ms } => Some(*retry_after_ms),
        _ => None,
    };
    let code = ErrorCode::of_engine_error(e);
    Dispatch::Reply(op::ERR, err_payload(code, &e.to_string(), retry_after_ms))
}

/// The effective request deadline: the client's ask clamped to the server
/// cap; the cap alone when the client sent none. `None` only when both are
/// unset.
fn effective_deadline(client_ms: u64, cap: Duration, now: Instant) -> Option<Instant> {
    let client = (client_ms > 0).then(|| Duration::from_millis(client_ms));
    let cap = (!cap.is_zero()).then_some(cap);
    client.into_iter().chain(cap).min().map(|b| now + b)
}

fn dispatch(
    engine: &Engine,
    shutdown: &AtomicBool,
    deadline_cap: Duration,
    opcode: u8,
    payload: &[u8],
    received: Instant,
) -> Dispatch {
    match opcode {
        op::LOAD => match parse_load(payload) {
            Ok(matrix) => match engine.load(&matrix) {
                Ok(out) => Dispatch::Reply(
                    op::OK_LOADED,
                    Builder::new()
                        .fingerprint(out.fingerprint)
                        .u64(out.n as u64)
                        .u64(out.factor_nnz as u64)
                        .u8(u8::from(out.already_cached))
                        .build(),
                ),
                Err(e) => engine_err(&e),
            },
            Err(msg) => bad(ErrorCode::Malformed, msg),
        },
        op::SOLVE => {
            let parsed = (|| {
                let mut c = Cursor::new(payload);
                let fp = c.fingerprint()?;
                let deadline_ms = c.u64()?;
                let n = c.usize()?;
                let rhs = c.f64_vec(n)?;
                // the flags byte is optional
                let flags = if c.remaining() > 0 { c.u8()? } else { 0 };
                c.finish()?;
                if flags & !SOLVE_FLAG_CERTIFIED != 0 {
                    return Err(format!("unknown SOLVE flags 0x{flags:02x}"));
                }
                Ok::<_, String>((fp, deadline_ms, rhs, flags))
            })();
            match parsed {
                Ok((fp, deadline_ms, rhs, flags)) => {
                    let deadline = effective_deadline(deadline_ms, deadline_cap, received);
                    if flags & SOLVE_FLAG_CERTIFIED != 0 {
                        match engine.solve_certified(fp, rhs, deadline) {
                            Ok(out) => Dispatch::Reply(
                                op::OK_SOLVED,
                                Builder::new()
                                    .u64(out.x.len() as u64)
                                    .f64_slice(&out.x)
                                    .u32(out.iterations)
                                    .f64(out.backward_error)
                                    .u8(u8::from(out.certified))
                                    .build(),
                            ),
                            Err(e) => engine_err(&e),
                        }
                    } else {
                        match engine.solve_deadline(fp, rhs, deadline) {
                            Ok(x) => Dispatch::Reply(
                                op::OK_SOLVED,
                                Builder::new().u64(x.len() as u64).f64_slice(&x).build(),
                            ),
                            Err(e) => engine_err(&e),
                        }
                    }
                }
                Err(msg) => bad(ErrorCode::Malformed, msg),
            }
        }
        op::STATS => Dispatch::Reply(op::OK_STATS, encode_stats(&engine.stats_pairs())),
        op::EVICT => {
            let parsed = (|| {
                let mut c = Cursor::new(payload);
                let fp = c.fingerprint()?;
                c.finish()?;
                Ok::<_, String>(fp)
            })();
            match parsed {
                Ok(fp) => Dispatch::Reply(
                    op::OK_EVICTED,
                    Builder::new().u8(u8::from(engine.evict(fp))).build(),
                ),
                Err(msg) => bad(ErrorCode::Malformed, msg),
            }
        }
        op::SHUTDOWN => {
            shutdown.store(true, Ordering::SeqCst);
            Dispatch::Bye
        }
        other => bad(
            ErrorCode::UnknownOpcode,
            format!("unknown request opcode 0x{other:02x}"),
        ),
    }
}

fn parse_load(payload: &[u8]) -> Result<CscMatrix, String> {
    let (nrows, ncols, colptr, rowidx, values) = decode_load(payload)?;
    CscMatrix::from_parts(nrows, ncols, colptr, rowidx, values).map_err(|e| e.to_string())
}
