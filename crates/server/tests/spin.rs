//! Regression: an expired read deadline behind an in-flight solve must not
//! busy-spin the event loop.
//!
//! A slow-loris deadline can expire while an earlier request on the same
//! connection is still in flight. An early loop left the expired deadline
//! armed while its `ERR Timeout` waited its turn behind that request, so
//! the nearest-deadline scan kept returning ~zero and the loop spun at a
//! zero poll timeout, burning a full core until the solve resolved (up to
//! `deadline_cap`, 30 s by default, off one trivially hostile client). The
//! cut now disarms the deadline, answers at once and closes; the loop
//! parks until the stalled solve's completion arrives and is dropped.
//!
//! Lives in its own integration-test binary so the `/proc/self` CPU
//! accounting sees only this server's threads.

#![cfg(target_os = "linux")]

mod common;

use std::io::Write;
use std::time::Duration;

use trisolv_matrix::gen;
use trisolv_server::{
    protocol, protocol::op, protocol::ErrorCode, Client, EngineOptions, ExecMode, FaultPlan,
    Server, ServerOptions,
};

#[test]
fn expired_deadline_behind_inflight_solve_does_not_spin() {
    let server = Server::spawn(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        engine: EngineOptions {
            exec: ExecMode::Threaded,
            ..EngineOptions::default()
        },
        // every solve stalls long enough to hold the in-flight slot while
        // the read deadline expires and the measurement window runs
        fault: FaultPlan::parse("solve.stall=every:1,ms:2500").unwrap(),
        io_timeout: Duration::from_millis(200),
        ..ServerOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    let n = 25;
    let a = gen::grid2d_laplacian(5, 5);
    let fp = Client::connect(&addr)
        .unwrap()
        .load(&a)
        .unwrap()
        .fingerprint;

    // one complete SOLVE (goes in flight and stalls in the executor), then
    // a partial frame that never finishes — and the client goes silent
    let b = gen::random_rhs(n, 1, 7);
    let mut raw = common::hello(&addr);
    let mut bytes = protocol::encode_v4(op::SOLVE, 1, &common::solve_payload(fp, b.col(0)));
    bytes.extend_from_slice(&40u32.to_le_bytes());
    bytes.extend_from_slice(&[op::SOLVE, 0x00]);
    raw.write_all(&bytes).unwrap();

    // let the 200 ms read deadline fire and the dust settle, then measure
    // CPU across a window where the loop has nothing to do but wait for
    // the stalled solve
    std::thread::sleep(Duration::from_millis(600));
    let before = common::process_cpu_ms("self");
    std::thread::sleep(Duration::from_millis(1200));
    let spent = common::process_cpu_ms("self") - before;
    assert!(
        spent < 300,
        "event loop burned {spent} ms of CPU in a 1200 ms wait window; \
         the expired read deadline is spinning the loop"
    );

    // protocol behavior: exactly one ERR Timeout, owned by the connection
    // rather than by a request, then the close; the stalled solve's reply
    // dies with the connection
    let (opcode, req_id, inner) = common::recv(&mut raw).expect("timeout error frame");
    assert_eq!(opcode, op::ERR);
    assert_eq!(req_id, protocol::REQ_ID_NONE);
    assert_eq!(common::err_code(&inner), ErrorCode::Timeout);
    common::assert_closed(&mut raw);

    server.shutdown();
    server.join();
}
