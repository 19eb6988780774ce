//! Event-driven front-end tests that need a server of their own: idle
//! fan-in, torn-frame recovery, and the protocol-error retry fix. The
//! framing contract both tiers share (refusals, slow-loris cut, pipelined
//! bursts under and past the cap, connection-limit shed) is pinned once,
//! against the server and the router, in
//! `crates/router/tests/contract.rs`.

mod common;

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use trisolv_matrix::gen;
use trisolv_server::{protocol, protocol::op};
use trisolv_server::{
    BatchOptions, Client, ClientError, ClientOptions, EngineOptions, ExecMode, FaultPlan, Server,
    ServerOptions,
};

fn opts(exec: ExecMode, max_batch: usize, workers: usize) -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        engine: EngineOptions {
            exec,
            batch: BatchOptions {
                max_batch,
                window: Duration::from_millis(2),
                wait_timeout: Duration::from_secs(20),
            },
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    }
}

/// Satellite: hundreds of idle connections must not consume solver workers.
/// With only 2 workers, the old thread-per-connection front end parks both
/// on the first two idle sockets and the active client starves.
#[test]
fn many_idle_connections_dont_starve_service() {
    let server = Server::spawn(opts(ExecMode::Threaded, 4, 2)).unwrap();
    let addr = server.local_addr().to_string();

    let idle: Vec<TcpStream> = (0..300)
        .map(|_| TcpStream::connect(&addr).expect("idle connect"))
        .collect();

    // bounded reads so starvation fails fast instead of hanging the test
    let mut client = Client::connect_with(
        &addr,
        ClientOptions {
            request_timeout: Duration::from_secs(5),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let a = gen::grid2d_laplacian(8, 8);
    let fp = client.load(&a).unwrap().fingerprint;
    for seed in 0..4 {
        let b = gen::random_rhs(64, 1, seed);
        assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 64);
    }

    drop(idle);
    client.shutdown_server().unwrap();
    server.join();
}

/// Satellite: a torn reply desynchronizes the stream; the retrying client
/// must recover by reconnecting, never by reusing the poisoned connection —
/// re-pinned against the event loop's write-fault path.
#[test]
fn torn_frame_reply_recovers_via_reconnect() {
    let mut o = opts(ExecMode::Threaded, 4, 4);
    o.fault = FaultPlan::parse("write.torn=every:2").unwrap();
    let server = Server::spawn(o).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::connect_with(
        &addr,
        ClientOptions {
            retries: 8,
            backoff: Duration::from_millis(1),
            request_timeout: Duration::from_secs(2),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let a = gen::grid2d_laplacian(7, 7);
    let fp = client.load(&a).unwrap().fingerprint;
    for seed in 0..6 {
        let b = gen::random_rhs(49, 1, seed);
        let x = client.solve_with_retry(fp, b.col(0), 0).unwrap();
        assert_eq!(x.len(), 49);
    }
    assert!(
        client.retry_stats().reconnects >= 1,
        "torn replies must force reconnects: {:?}",
        client.retry_stats()
    );
    server.shutdown();
    server.join();
}

/// A hostile "server": completes the handshake, then answers every
/// request with a well-framed reply carrying an opcode no client knows.
/// Returns its address, its connection count, and the opcodes it received.
fn garbage_opcode_server() -> (String, Arc<AtomicUsize>, Arc<Mutex<Vec<u8>>>) {
    common::stub_peer(common::ok_hello, |_, _| {
        protocol::encode_frame(0x60, &[0xAA; 4])
    })
}

/// How many of the frames a stub received were requests (not `HELLO`s).
fn requests(seen: &Mutex<Vec<u8>>) -> usize {
    let seen = seen.lock().unwrap();
    seen.iter().filter(|&&o| o != op::HELLO).count()
}

/// Satellite bugfix: a `Protocol` error means the stream may be
/// desynchronized, so `solve_with_retry` must reconnect before retrying and
/// go permanent once a *fresh* stream also replies garbage. The old code
/// retried on the same socket up to `retries` times.
#[test]
fn protocol_errors_retry_once_on_a_fresh_connection_only() {
    let (addr, conns, seen) = garbage_opcode_server();
    let fp = trisolv_server::Fingerprint(1, 2);

    // reconnect-capable client: attempt on conn 1, reconnect, attempt on
    // conn 2, then permanent — exactly 2 frames over exactly 2 connections
    let mut client = Client::connect_with(
        &addr,
        ClientOptions {
            retries: 5,
            backoff: Duration::from_millis(1),
            request_timeout: Duration::from_secs(2),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    let err = client.solve_with_retry(fp, &[1.0, 2.0], 0).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err:?}");
    assert_eq!(requests(&seen), 2, "must not retry a desynchronized stream");
    assert_eq!(conns.load(Ordering::SeqCst), 2);
    assert_eq!(client.retry_stats().reconnects, 1);

    // a client with no retained address cannot reconnect: one attempt, done
    let (addr2, conns2, seen2) = garbage_opcode_server();
    let mut bare = Client::connect(&addr2).unwrap();
    let err = bare.solve_with_retry(fp, &[1.0], 0).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err:?}");
    assert_eq!(requests(&seen2), 1);
    assert_eq!(conns2.load(Ordering::SeqCst), 1);
}
