//! The load generators: one pipelined v4 connection driven open loop, a
//! few driven closed loop. Concurrency beyond the core count comes from
//! pipelining on these connections, never from more sockets or threads:
//! on a two-core box a fleet of client threads would measure the
//! scheduler, not the server.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use trisolv_server::protocol::{
    op, read_frame, unwrap_v4, wrap_v4, write_frame, Builder, Cursor, PROTOCOL_VERSION,
};
use trisolv_server::Fingerprint;

use crate::cpu;
use crate::trace::Tracer;

/// How many verified-later replies a stream keeps. A ring, allocated
/// before the timed phase, so that resident memory does not grow with the
/// number of replies a faster program returns.
pub const RETAIN_SLOTS: usize = 128;
/// Every this-many-th reply is kept for verification.
pub const RETAIN_EVERY: u64 = 16;

/// How long before a request is due the open-loop sender stops sleeping
/// and spins (7 % of one core at 250 requests a second).
const SPIN: Duration = Duration::from_micros(300);

/// Requests the open-loop sender keeps encoded ahead of time, and the
/// time it allows for encoding one more before the next is due.
const LOOKAHEAD: usize = 8;
const ENCODE_TIME: Duration = Duration::from_micros(500);

/// A raw protocol-v4 connection. `Client` owns its socket and blocks in
/// `recv`, so a sender and a receiver thread cannot share one; this speaks
/// the same frames through the same public `protocol` functions and can
/// be cloned into two halves.
pub struct Pipe {
    stream: TcpStream,
}

pub struct Reply {
    pub rid: u64,
    pub ok: bool,
    /// Frame bytes on the wire.
    pub wire_bytes: usize,
    opcode: u8,
    body: Vec<u8>,
}

impl Reply {
    /// The solution vector of an `OK_SOLVED` reply.
    pub fn x(&self) -> Result<Vec<f64>, String> {
        let (_, inner) = unwrap_v4(self.opcode, &self.body).map_err(|e| format!("{e:?}"))?;
        let mut c = Cursor::new(inner);
        let n = c.usize()?;
        c.f64_vec(n)
    }
}

impl Pipe {
    pub fn connect(addr: &str) -> io::Result<Pipe> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // a server that stops answering fails the run instead of hanging it
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let hello = Builder::new().u16(PROTOCOL_VERSION).build();
        write_frame(&mut stream, op::HELLO, &hello)?;
        let (opcode, body) = read_frame(&mut stream)?;
        let version = Cursor::new(&body).u16().unwrap_or(0);
        if opcode != op::OK_HELLO || version < 4 {
            return Err(io::Error::other(format!(
                "peer did not negotiate v4 (opcode 0x{opcode:02x}, version {version})"
            )));
        }
        Ok(Pipe { stream })
    }

    pub fn try_clone(&self) -> io::Result<Pipe> {
        Ok(Pipe {
            stream: self.stream.try_clone()?,
        })
    }

    /// The enveloped payload of one SOLVE, built the way `Client` builds it.
    pub fn encode_solve(rid: u64, fp: Fingerprint, rhs: &[f64]) -> Vec<u8> {
        let inner = Builder::new()
            .fingerprint(fp)
            .u64(0)
            .u64(rhs.len() as u64)
            .f64_slice(rhs)
            .build();
        wrap_v4(op::SOLVE, rid, &inner)
    }

    /// Write an encoded SOLVE; returns the frame's bytes on the wire.
    pub fn send_encoded(&mut self, wrapped: &[u8]) -> io::Result<usize> {
        write_frame(&mut self.stream, op::SOLVE, wrapped)?;
        Ok(5 + wrapped.len())
    }

    pub fn send_solve(&mut self, rid: u64, fp: Fingerprint, rhs: &[f64]) -> io::Result<usize> {
        self.send_encoded(&Pipe::encode_solve(rid, fp, rhs))
    }

    /// Read one reply and verify its envelope checksum.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let (opcode, body) = read_frame(&mut self.stream)?;
        let (rid, _) = unwrap_v4(opcode, &body).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("reply envelope: {e:?}"))
        })?;
        Ok(Reply {
            rid,
            ok: opcode == op::OK_SOLVED,
            wire_bytes: 5 + body.len(),
            opcode,
            body,
        })
    }

    fn close(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// What a generator saw over its measured phase.
#[derive(Default)]
pub struct StreamOut {
    /// Latency of each OK reply, in ms.
    pub lat_ms: Vec<f64>,
    /// Open loop: how late the sender woke for each request, in ms.
    pub late_ms: Vec<f64>,
    pub sent: u64,
    pub ok: u64,
    pub err: u64,
    /// Length of the measured window, in seconds.
    pub wall_s: f64,
    /// Request and reply bytes on the wire.
    pub wire_bytes: u64,
    /// `(index into the RHS pool, reply)` pairs kept for verification.
    pub retained: Vec<(usize, Vec<f64>)>,
    pub threads: usize,
    pub conns: usize,
    /// CPU seconds the generator's own threads used from start to finish,
    /// and the requests they handled in that time (warm-up included in
    /// both); `None` where the kernel does not say.
    pub generator_cpu_s: Option<f64>,
    pub handled: u64,
}

struct Ring {
    slots: Vec<(usize, Vec<f64>)>,
    seen: u64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            slots: Vec::with_capacity(RETAIN_SLOTS),
            seen: 0,
        }
    }

    fn offer(&mut self, rhs_index: usize, reply: &Reply) -> Result<(), String> {
        self.seen += 1;
        if self.seen % RETAIN_EVERY != 0 {
            return Ok(());
        }
        let kept = (rhs_index, reply.x()?);
        let at = (self.seen / RETAIN_EVERY) as usize % RETAIN_SLOTS;
        if at < self.slots.len() {
            self.slots[at] = kept;
        } else {
            self.slots.push(kept);
        }
        Ok(())
    }
}

/// Where a generator sends: a listening stack, the factor loaded on it,
/// and the right-hand sides to cycle through.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub addr: &'a str,
    pub fp: Fingerprint,
    pub pool: &'a [Vec<f64>],
}

fn spawn_named<'s, T: Send + 's>(
    scope: &'s std::thread::Scope<'s, '_>,
    index: usize,
    f: impl FnOnce() -> T + Send + 's,
) -> std::thread::ScopedJoinHandle<'s, T> {
    std::thread::Builder::new()
        .name(format!("ldg-gen-{index}"))
        .spawn_scoped(scope, f)
        .expect("spawn generator thread")
}

/// Open loop: request `i` is due `schedule[i]` seconds after the start
/// and is sent then whatever the state of earlier requests; its latency
/// runs from that due instant to the moment its reply has been read and
/// checksummed, so a stall is charged to every request it delays.
/// Requests due before `warm` seconds are sent and answered but not
/// reported. A sender thread and a receiver thread share one connection.
/// The sender encodes requests ahead of their due instants (up to
/// [`LOOKAHEAD`] of them) and only writes them then: independent users do
/// not queue behind each other's encoding, and one sender thread must not
/// make them.
pub fn open_loop(
    target: Target,
    schedule: &[f64],
    warm: f64,
    tracer: &Tracer,
) -> Result<StreamOut, String> {
    let Target { addr, fp, pool } = target;
    let mut tx = Pipe::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rx = tx.try_clone().map_err(|e| e.to_string())?;
    let sender_failed = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| t0 + Duration::from_secs_f64(schedule[i]);
    let first = schedule.partition_point(|&t| t < warm);

    let (sent, received) = std::thread::scope(|scope| {
        let sender = spawn_named(scope, 0, || {
            let mut late_ms = Vec::with_capacity(schedule.len() - first);
            let mut bytes = 0u64;
            let mut ready = VecDeque::with_capacity(LOOKAHEAD);
            let mut encoded = 0;
            for i in 0..schedule.len() {
                // Encode ahead while there is time, so that a burst of
                // arrivals costs each of its requests one write and no more.
                while encoded < schedule.len()
                    && (ready.is_empty()
                        || (ready.len() < LOOKAHEAD && Instant::now() + ENCODE_TIME < due(i)))
                {
                    ready.push_back(Pipe::encode_solve(
                        encoded as u64,
                        fp,
                        &pool[encoded % pool.len()],
                    ));
                    encoded += 1;
                }
                let wrapped = ready.pop_front().expect("topped up above");
                // Sleep to just short of the due instant, then spin: a sleeping
                // thread is woken late by however long the idle core takes to
                // come back, which on a virtual machine can be a millisecond.
                if let Some(wait) = due(i).checked_duration_since(Instant::now() + SPIN) {
                    std::thread::sleep(wait);
                }
                while Instant::now() < due(i) {
                    std::hint::spin_loop();
                }
                let woke = Instant::now();
                match tx.send_encoded(&wrapped) {
                    Ok(n) if i >= first => {
                        bytes += n as u64;
                        late_ms.push(woke.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
                    }
                    Ok(_) => {}
                    Err(e) => {
                        // wake the receiver out of its blocking read
                        sender_failed.store(true, Ordering::SeqCst);
                        tx.close();
                        return Err(format!("send request {i}: {e}"));
                    }
                }
            }
            Ok((late_ms, bytes, cpu::own_thread_cpu()))
        });
        let receiver = spawn_named(scope, 1, || {
            let mut out = StreamOut::default();
            out.lat_ms.reserve(schedule.len() - first);
            let mut ring = Ring::new();
            for _ in 0..schedule.len() {
                let reply = match rx.recv() {
                    Ok(r) => r,
                    Err(_) if sender_failed.load(Ordering::SeqCst) => break,
                    Err(e) => return Err(format!("receive: {e}")),
                };
                let done = Instant::now();
                let i = reply.rid as usize;
                if i >= schedule.len() {
                    return Err(format!("reply to unknown request {i}"));
                }
                if i < first {
                    continue;
                }
                out.wire_bytes += reply.wire_bytes as u64;
                if reply.ok {
                    out.ok += 1;
                    out.lat_ms
                        .push(done.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
                    tracer.record("request", "client", i as u64, -1, due(i), done);
                    ring.offer(i % pool.len(), &reply)?;
                } else {
                    out.err += 1;
                }
                out.wall_s = done.saturating_duration_since(t0).as_secs_f64() - warm;
            }
            out.retained = ring.slots;
            out.generator_cpu_s = cpu::own_thread_cpu();
            Ok(out)
        });
        (sender.join(), receiver.join())
    });
    let (late_ms, sent_bytes, sender_cpu) = sent.map_err(|_| "sender thread panicked")??;
    let mut out = received.map_err(|_| "receiver thread panicked")??;
    out.generator_cpu_s = out.generator_cpu_s.zip(sender_cpu).map(|(r, s)| r + s);
    out.sent = (schedule.len() - first) as u64;
    out.handled = schedule.len() as u64;
    // a request that never got a reply failed
    out.err = out.sent - out.ok;
    out.late_ms = late_ms;
    out.wire_bytes += sent_bytes;
    out.threads = 2;
    out.conns = 1;
    Ok(out)
}

/// Closed loop: each of `conns` connections keeps `window` requests in
/// flight from one thread, sending the next only when a reply arrives.
/// Replies read inside `[warm, warm + seconds)` are reported; an ERR reply
/// at any time after `warm` counts as an error.
pub fn closed_loop(
    target: Target,
    conns: usize,
    window: usize,
    warm: f64,
    seconds: f64,
    tracer: &Tracer,
) -> Result<StreamOut, String> {
    let Target { addr, fp, pool } = target;
    let t0 = Instant::now();
    let open = t0 + Duration::from_secs_f64(warm);
    let close = open + Duration::from_secs_f64(seconds);
    let per_conn: Vec<Result<StreamOut, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                spawn_named(scope, c, move || {
                    let mut pipe =
                        Pipe::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut out = StreamOut::default();
                    let mut ring = Ring::new();
                    let mut in_flight: HashMap<u64, Instant> = HashMap::with_capacity(window);
                    let mut next = 0u64;
                    loop {
                        while in_flight.len() < window && Instant::now() < close {
                            let rhs = &pool[(next as usize * conns + c) % pool.len()];
                            let at = Instant::now();
                            let n = pipe
                                .send_solve(next, fp, rhs)
                                .map_err(|e| format!("send: {e}"))?;
                            in_flight.insert(next, at);
                            if at >= open {
                                out.sent += 1;
                                out.wire_bytes += n as u64;
                            }
                            next += 1;
                        }
                        if in_flight.is_empty() {
                            break;
                        }
                        let reply = pipe.recv().map_err(|e| format!("receive: {e}"))?;
                        let done = Instant::now();
                        let at = in_flight
                            .remove(&reply.rid)
                            .ok_or_else(|| format!("reply to unknown request {}", reply.rid))?;
                        if done < open {
                            continue;
                        }
                        if !reply.ok {
                            out.err += 1;
                        } else if done < close {
                            // replies read after the window closes only drain the pipeline
                            out.ok += 1;
                            out.wall_s = done.duration_since(open).as_secs_f64();
                            out.wire_bytes += reply.wire_bytes as u64;
                            out.lat_ms.push(done.duration_since(at).as_secs_f64() * 1e3);
                            tracer.record(
                                "request",
                                "client",
                                reply.rid * conns as u64 + c as u64,
                                -1,
                                at,
                                done,
                            );
                            ring.offer((reply.rid as usize * conns + c) % pool.len(), &reply)?;
                        }
                    }
                    out.retained = ring.slots;
                    out.handled = next;
                    out.generator_cpu_s = cpu::own_thread_cpu();
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".to_string()))
            })
            .collect()
    });
    let mut all = StreamOut {
        threads: conns,
        conns,
        generator_cpu_s: Some(0.0),
        ..StreamOut::default()
    };
    for out in per_conn {
        let out = out?;
        all.lat_ms.extend(out.lat_ms);
        all.sent += out.sent;
        all.handled += out.handled;
        // the window as measured: open to the last reply counted in it
        all.wall_s = all.wall_s.max(out.wall_s);
        all.ok += out.ok;
        all.err += out.err;
        all.wire_bytes += out.wire_bytes;
        all.retained.extend(out.retained);
        all.generator_cpu_s = all
            .generator_cpu_s
            .zip(out.generator_cpu_s)
            .map(|(a, b)| a + b);
    }
    Ok(all)
}
