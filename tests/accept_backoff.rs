//! Regression: `accept` failing at the descriptor limit must not spin the
//! event loop.
//!
//! The listener is level-triggered, so when `accept` fails with `EMFILE`
//! the backlog stays readable; a loop that just returns and polls again
//! burns a full core until some connection closes. The front end now takes
//! the listener out of the poll set for a short back-off (or until a
//! connection closes). Driven against the real `trisolv` binary under a
//! lowered `ulimit -n`, with the server's CPU read from `/proc/<pid>/stat`.
#![cfg(target_os = "linux")]

#[path = "../crates/server/tests/common/mod.rs"]
mod common;

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use trisolv_matrix::gen;
use trisolv_server::{Client, ClientOptions};

/// `trisolv serve` under `ulimit -n nofile`; returns the child (the shell
/// `exec`s the server, so the pid is the server's), its stdout (to be kept
/// open: the server prints on shutdown) and the announced address.
fn spawn_serve_limited(nofile: u32) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n {nofile}; exec \"$0\" serve --addr 127.0.0.1:0 --workers 2 --exec seq"
        ))
        .arg(env!("CARGO_BIN_EXE_trisolv"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    out.read_line(&mut line).unwrap();
    assert!(
        line.contains("trisolv-server listening on"),
        "unexpected announce line: {line:?}"
    );
    let addr = line
        .split_whitespace()
        .nth(3)
        .expect("announce line carries the address")
        .to_string();
    (child, out, addr)
}

#[test]
fn accept_at_the_fd_limit_backs_off_instead_of_spinning() {
    let (mut child, _out, addr) = spawn_serve_limited(40);

    // twice as many held-open sockets as the server has descriptors for:
    // the kernel completes every handshake, the server can accept only the
    // first thirty-odd, and the rest sit in a backlog it cannot drain
    let extras: Vec<TcpStream> = (0..80)
        .map(|_| TcpStream::connect(&addr).expect("the backlog takes the connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let before = common::process_cpu_ms(&child.id().to_string());
    std::thread::sleep(Duration::from_millis(500));
    let spent = common::process_cpu_ms(&child.id().to_string()) - before;
    if spent >= 100 {
        // do not leave a spinning server behind the failed test
        let _ = child.kill();
        let _ = child.wait();
        panic!(
            "server burned {spent} ms of CPU in a 500 ms window with its backlog \
             stuck at the descriptor limit: the accept loop is spinning"
        );
    }

    // descriptors come back; service resumes without outside help
    drop(extras);
    let mut client = Client::connect_with(
        &addr,
        ClientOptions {
            request_timeout: Duration::from_secs(10),
            ..ClientOptions::default()
        },
    )
    .expect("connect once the extras are gone");
    let a = gen::from_spec("grid2d:6").unwrap();
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(36, 1, 3);
    assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 36);

    client.shutdown_server().unwrap();
    assert!(child.wait().unwrap().success());
}
