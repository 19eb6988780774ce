//! Raw-frame helpers for tests that hand-build traffic: the handshake,
//! enveloped frames, replies correlated by request id, and a hand-rolled
//! peer to aim a client or the router at. Shared with the router's tests
//! (`#[path]`-included there), so the same cases run against both tiers.
#![allow(dead_code)]

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use trisolv_server::protocol::{self, op, ErrorCode};
use trisolv_server::Fingerprint;

/// A raw connection that has *not* shaken hands, with bounded reads so a
/// reply that never comes fails the test instead of hanging it.
pub fn connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// A raw connection with the `HELLO` handshake done.
pub fn hello(addr: &str) -> TcpStream {
    let mut s = connect(addr);
    let offer = protocol::Builder::new()
        .u16(protocol::PROTOCOL_VERSION)
        .build();
    protocol::write_frame(&mut s, op::HELLO, &offer).unwrap();
    let (opcode, body) = protocol::read_frame(&mut s).expect("handshake reply");
    assert_eq!(opcode, op::OK_HELLO, "handshake refused");
    assert_eq!(
        protocol::Cursor::new(&body).u16().unwrap(),
        protocol::PROTOCOL_VERSION
    );
    s
}

/// A hand-rolled peer on an ephemeral port: `on_hello` answers a
/// connection's opening `HELLO` (bare), `on_request(opcode, req_id)` every
/// enveloped frame after it. Returns its address, the number of
/// connections it accepted, and the opcode of every frame it received.
pub fn stub_peer(
    on_hello: fn() -> Vec<u8>,
    on_request: fn(u8, u64) -> Vec<u8>,
) -> (String, Arc<AtomicUsize>, Arc<Mutex<Vec<u8>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let dials = Arc::new(AtomicUsize::new(0));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (dials2, seen2) = (Arc::clone(&dials), Arc::clone(&seen));
    std::thread::spawn(move || {
        // one connection at a time, for as long as the test process lives
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            dials2.fetch_add(1, Ordering::SeqCst);
            while let Ok((opcode, payload)) = protocol::read_frame(&mut stream) {
                seen2.lock().unwrap().push(opcode);
                let out = if opcode == op::HELLO {
                    on_hello()
                } else {
                    let (req_id, _) = protocol::unwrap_v4(opcode, &payload)
                        .expect("everything after HELLO is enveloped");
                    on_request(opcode, req_id)
                };
                if stream.write_all(&out).is_err() {
                    break;
                }
            }
        }
    });
    (addr, dials, seen)
}

/// The `OK_HELLO` a well-behaved [`stub_peer`] answers the handshake with.
pub fn ok_hello() -> Vec<u8> {
    let agreed = protocol::Builder::new()
        .u16(protocol::PROTOCOL_VERSION)
        .build();
    protocol::encode_frame(op::OK_HELLO, &agreed)
}

/// The inner payload of a plain SOLVE (no deadline, no flags byte).
pub fn solve_payload(fp: Fingerprint, rhs: &[f64]) -> Vec<u8> {
    protocol::Builder::new()
        .fingerprint(fp)
        .u64(0)
        .u64(rhs.len() as u64)
        .f64_slice(rhs)
        .build()
}

/// Send one enveloped request.
pub fn send(s: &mut TcpStream, opcode: u8, req_id: u64, inner: &[u8]) {
    s.write_all(&protocol::encode_v4(opcode, req_id, inner))
        .unwrap();
}

/// Read one enveloped reply: `(opcode, req_id, inner payload)`. A reply
/// that is not enveloped or fails its checksum is an `InvalidData` error.
pub fn recv(s: &mut TcpStream) -> io::Result<(u8, u64, Vec<u8>)> {
    let (opcode, body) = protocol::read_frame(s)?;
    let (req_id, inner) = protocol::unwrap_v4(opcode, &body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    Ok((opcode, req_id, inner.to_vec()))
}

/// Read `n` replies and index them by request id — replies arrive in
/// completion order, so position means nothing. Panics on a duplicate id:
/// exactly one reply per request.
pub fn recv_by_id(s: &mut TcpStream, n: usize) -> HashMap<u64, (u8, Vec<u8>)> {
    let mut replies = HashMap::new();
    for k in 0..n {
        let (opcode, req_id, inner) =
            recv(s).unwrap_or_else(|e| panic!("reply {k} of {n} never came: {e}"));
        assert!(
            replies.insert(req_id, (opcode, inner)).is_none(),
            "two replies for request {req_id}"
        );
    }
    replies
}

/// The error code of an `ERR` inner payload.
pub fn err_code(inner: &[u8]) -> ErrorCode {
    protocol::parse_err(inner)
        .expect("decodable ERR payload")
        .0
        .expect("known error code")
}

/// The solution vector of an `OK_SOLVED` inner payload.
pub fn solved_x(inner: &[u8]) -> Vec<f64> {
    let mut c = protocol::Cursor::new(inner);
    let n = c.usize().unwrap();
    c.f64_vec(n).unwrap()
}

/// Assert the peer has closed: the next read sees EOF (or a reset).
pub fn assert_closed(s: &mut TcpStream) {
    use std::io::Read;
    let mut probe = [0u8; 1];
    assert_eq!(s.read(&mut probe).unwrap_or(0), 0, "peer must close");
}

/// One named counter out of a `STATS` reply.
pub fn stat(stats: &[(String, u64)], key: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing stat {key}"))
        .1
}

/// Total CPU time (utime + stime) in milliseconds of process `pid`
/// (`"self"` for this one), from Linux procfs.
pub fn process_cpu_ms(pid: &str) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("linux procfs");
    // fields after the parenthesized comm, so spaces in the name are safe;
    // utime/stime are fields 14/15 (1-indexed), i.e. 11/12 from field 3
    let rest = &stat[stat.rfind(')').expect("stat comm") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    // USER_HZ is 100 on every mainstream Linux configuration
    (utime + stime) * 1000 / 100
}
