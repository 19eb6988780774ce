//! The client-facing framing contract, pinned once and run against both
//! tiers that expose it: a bare `Server`, and a `Router` in front of one.
//! Both sit behind the same `trisolv_server::frontend::FrontEnd`, so every
//! case here must read the same from either address.

#[path = "../../server/tests/common/mod.rs"]
mod common;

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use trisolv_core::SparseCholeskySolver;
use trisolv_matrix::{gen, DenseMatrix};
use trisolv_router::{Router, RouterOptions, RunningRouter};
use trisolv_server::protocol::{self, op, ErrorCode, REQ_ID_NONE};
use trisolv_server::{
    Client, ClientOptions, EngineOptions, ExecMode, RunningServer, Server, ServerOptions,
};

/// The front-end settings a case varies; applied to whichever tier faces
/// the client.
#[derive(Clone, Copy)]
struct Knobs {
    io_timeout: Duration,
    max_conns: usize,
    max_pipeline: usize,
}

const DEFAULTS: Knobs = Knobs {
    io_timeout: Duration::from_secs(10),
    max_conns: 0,
    max_pipeline: 64,
};

struct Stack {
    /// `Some` when the router is the tier under test.
    router: Option<RunningRouter>,
    server: RunningServer,
    addr: String,
}

impl Stack {
    fn spawn(routed: bool, knobs: Knobs) -> Stack {
        let mut sopts = ServerOptions {
            workers: 4,
            engine: EngineOptions {
                exec: ExecMode::Seq,
                ..EngineOptions::default()
            },
            ..ServerOptions::default()
        };
        let mut ropts = RouterOptions {
            replication: 1,
            probe_interval: Duration::from_millis(20),
            ..RouterOptions::default()
        };
        if routed {
            (ropts.io_timeout, ropts.max_conns, ropts.max_pipeline) =
                (knobs.io_timeout, knobs.max_conns, knobs.max_pipeline);
        } else {
            (sopts.io_timeout, sopts.max_conns, sopts.max_pipeline) =
                (knobs.io_timeout, knobs.max_conns, knobs.max_pipeline);
        }
        let server = Server::spawn(sopts).unwrap();
        let mut addr = server.local_addr().to_string();
        let router = routed.then(|| {
            ropts.backends = vec![addr.clone()];
            let router = Router::spawn(ropts).unwrap();
            assert!(router.wait_healthy(1, Duration::from_secs(10)));
            addr = router.local_addr().to_string();
            router
        });
        Stack {
            router,
            server,
            addr,
        }
    }

    /// The `STATS` key under which this tier counts refused client frames.
    fn crc_key(&self) -> &'static str {
        match self.router {
            None => "crc_rejects",
            Some(_) => "router_crc_rejects",
        }
    }

    fn client(&self) -> Client {
        Client::connect_with(
            &self.addr,
            ClientOptions {
                request_timeout: Duration::from_secs(5),
                ..ClientOptions::default()
            },
        )
        .unwrap()
    }
}

/// Run `case` against a server, then against a router fronting one.
fn on_both_tiers(knobs: Knobs, case: impl Fn(&str, &Stack)) {
    for (tier, routed) in [("server", false), ("router", true)] {
        let stack = Stack::spawn(routed, knobs);
        case(tier, &stack);
        if let Some(r) = stack.router {
            r.join();
        }
        stack.server.join();
    }
}

/// One row of the refusal table: `(what, greeted, bytes, req_id, code,
/// closes)` — the peer writes `bytes` after the handshake ([`GREETED`], so
/// the `ERR` is enveloped and carries `req_id`) or as the very first thing
/// on the socket ([`BARE`], so the `ERR` is bare), must get back an `ERR`
/// with `code`, and the connection then [`CLOSES`] or [`SERVES`] on.
type Refusal = (&'static str, bool, Vec<u8>, u64, ErrorCode, bool);
const GREETED: bool = true;
const BARE: bool = false;
const CLOSES: bool = true;
const SERVES: bool = false;

fn check_refusals(table: &[Refusal]) {
    on_both_tiers(DEFAULTS, |tier, stack| {
        for (what, greeted, bytes, want_id, code, closes) in table {
            let what = format!("{tier}, {what}");
            let mut s = if *greeted {
                common::hello(&stack.addr)
            } else {
                common::connect(&stack.addr)
            };
            s.write_all(bytes).unwrap();
            let (opcode, req_id, inner) = if *greeted {
                common::recv(&mut s).unwrap_or_else(|e| panic!("{what}: no enveloped ERR: {e}"))
            } else {
                let (opcode, body) = protocol::read_frame(&mut s)
                    .unwrap_or_else(|e| panic!("{what}: no bare ERR: {e}"));
                (opcode, REQ_ID_NONE, body)
            };
            assert_eq!((opcode, req_id), (op::ERR, *want_id), "{what}");
            assert_eq!(common::err_code(&inner), *code, "{what}");
            if *closes {
                common::assert_closed(&mut s);
            } else {
                common::send(&mut s, op::STATS, 99, &[]);
                let (opcode, req_id, _) = common::recv(&mut s).unwrap();
                assert_eq!((opcode, req_id), (op::OK_STATS, 99), "{what}");
            }
        }
    });
}

/// Satellite: the one refusal that replaces the version-compat matrices.
/// Whatever a pre-v4 peer opens with — a bare request, a `HELLO` offering
/// an old version, an opcode nobody knows — it gets exactly one bare `ERR`
/// naming the required version, then the close.
#[test]
fn pre_v4_peer_gets_one_err_then_close() {
    let solve = common::solve_payload(trisolv_server::Fingerprint(1, 2), &[1.0, 2.0]);
    let solve = protocol::encode_frame(op::SOLVE, &solve);
    let hello3 = protocol::encode_frame(op::HELLO, &protocol::Builder::new().u16(3).build());
    let garbage = protocol::encode_frame(0x7E, &[1, 2, 3]);
    use ErrorCode::Malformed;
    #[rustfmt::skip]
    check_refusals(&[
        ("bare SOLVE first",     BARE, solve,   REQ_ID_NONE, Malformed, CLOSES),
        ("HELLO(3)",             BARE, hello3,  REQ_ID_NONE, Malformed, CLOSES),
        ("garbage opcode first", BARE, garbage, REQ_ID_NONE, Malformed, CLOSES),
    ]);
    // and the message names the version a peer needs
    on_both_tiers(DEFAULTS, |tier, stack| {
        let mut s = common::connect(&stack.addr);
        s.write_all(&protocol::encode_frame(op::STATS, &[]))
            .unwrap();
        let (_, body) = protocol::read_frame(&mut s).unwrap();
        let (_, msg, _) = protocol::parse_err(&body).unwrap();
        assert!(msg.contains("version 4"), "{tier}: {msg}");
    });
}

/// Frames the front end refuses by itself: an undecodable length closes
/// the connection (enveloped after the handshake, bare before it); a
/// damaged or mistimed frame is refused under its own id and the
/// connection keeps serving.
#[test]
fn refused_frames_get_the_right_err() {
    let mut flipped = protocol::encode_v4(op::STATS, 7, &[]);
    let at = flipped.len() - 4; // inside the checksum trailer: the id survives
    flipped[at] ^= 0x01;
    let offer = protocol::Builder::new().u16(4).build();
    let huge = u32::MAX.to_le_bytes().to_vec();
    let zero = 0u32.to_le_bytes().to_vec();
    let short = protocol::encode_frame(op::STATS, &[1, 2, 3]);
    let late_hello = protocol::encode_v4(op::HELLO, 31, &offer);
    use ErrorCode::{Corrupt, Malformed, TooLarge, UnknownOpcode};
    #[rustfmt::skip]
    check_refusals(&[
        ("oversized length",       GREETED, huge.clone(),    REQ_ID_NONE, TooLarge,      CLOSES),
        ("zero length",            GREETED, zero.clone(),    REQ_ID_NONE, Malformed,     CLOSES),
        ("oversized length first", BARE,    huge,            REQ_ID_NONE, TooLarge,      CLOSES),
        ("zero length first",      BARE,    zero,            REQ_ID_NONE, Malformed,     CLOSES),
        ("flipped byte",           GREETED, flipped.clone(), 7,           Corrupt,       SERVES),
        ("shorter than envelope",  GREETED, short,           REQ_ID_NONE, Malformed,     SERVES),
        ("late HELLO",             GREETED, late_hello,      31,          UnknownOpcode, SERVES),
    ]);
    // the flipped frame — and only it — shows up in the counters
    on_both_tiers(DEFAULTS, |tier, stack| {
        let mut s = common::hello(&stack.addr);
        s.write_all(&flipped).unwrap();
        common::recv(&mut s).unwrap();
        let stats = stack.client().stats().unwrap();
        assert_eq!(common::stat(&stats, stack.crc_key()), 1, "{tier}");
    });
}

#[test]
fn stalled_partial_frame_is_cut_with_timeout() {
    let knobs = Knobs {
        io_timeout: Duration::from_millis(200),
        ..DEFAULTS
    };
    on_both_tiers(knobs, |tier, stack| {
        let mut loris = common::hello(&stack.addr);
        // length says 40 bytes; send the prefix plus two bytes and stall
        let mut partial = 40u32.to_le_bytes().to_vec();
        partial.extend_from_slice(&[op::SOLVE, 0x00]);
        loris.write_all(&partial).unwrap();
        let (opcode, req_id, inner) = common::recv(&mut loris).expect("ERR Timeout before close");
        assert_eq!((opcode, req_id), (op::ERR, REQ_ID_NONE), "{tier}");
        assert_eq!(common::err_code(&inner), ErrorCode::Timeout, "{tier}");
        common::assert_closed(&mut loris);

        // a peer idle *between* frames may wait as long as it likes
        let mut patient = stack.client();
        std::thread::sleep(Duration::from_millis(300));
        assert!(!patient.stats().unwrap().is_empty(), "{tier}");
    });
}

/// Pipelined SOLVEs are each answered exactly once under their own id,
/// bit-identical to the sequential solver — with the whole burst under the
/// pipeline cap (all in flight at once), and with a burst of four times the
/// cap. The second is the regression: one socket read drains the burst into
/// the connection's read buffer, where level-triggered poll can never see
/// it again, so admission must resume when completions free pipeline
/// slots, not on socket readiness. Each also with the peer half-closing
/// before it reads a single reply: frames already in userspace owe nothing
/// to the socket.
#[test]
fn pipelined_burst_is_fully_answered_under_and_past_the_cap() {
    let nreq = 8;
    let n = 36;
    let a = gen::grid2d_laplacian(6, 6);
    let reference = SparseCholeskySolver::factor(&a).unwrap();
    let rhs: Vec<DenseMatrix> = (0..nreq)
        .map(|i| gen::random_rhs(n, 1, 100 + i as u64))
        .collect();
    for max_pipeline in [64, nreq / 4] {
        let knobs = Knobs {
            max_pipeline,
            ..DEFAULTS
        };
        on_both_tiers(knobs, |tier, stack| {
            let fp = stack.client().load(&a).unwrap().fingerprint;
            let mut burst = Vec::new();
            for (i, b) in rhs.iter().enumerate() {
                let inner = common::solve_payload(fp, b.col(0));
                burst.extend_from_slice(&protocol::encode_v4(op::SOLVE, i as u64 + 1, &inner));
            }
            for half_close in [false, true] {
                let what = format!("{tier}, cap {max_pipeline}, half_close {half_close}");
                let mut s = common::hello(&stack.addr);
                s.write_all(&burst).unwrap();
                if half_close {
                    s.shutdown(Shutdown::Write).unwrap();
                }
                let replies = common::recv_by_id(&mut s, nreq);
                for (i, b) in rhs.iter().enumerate() {
                    let (opcode, inner) = &replies[&(i as u64 + 1)];
                    assert_eq!(*opcode, op::OK_SOLVED, "{what}, request {i}");
                    assert_eq!(
                        common::solved_x(inner).as_slice(),
                        reference.solve(b).col(0),
                        "{what}, request {i}"
                    );
                }
                if half_close {
                    common::assert_closed(&mut s);
                }
            }
            let stats = stack.client().stats().unwrap();
            if stack.router.is_none() {
                assert!(common::stat(&stats, "frames_pipelined") >= 1, "{tier}");
                assert!(common::stat(&stats, "connections_total") >= 4, "{tier}");
                assert!(common::stat(&stats, "connections_open") >= 1, "{tier}");
            }
        });
    }
}

/// Rejecting a connection over `max_conns` must never block the event
/// loop — the `ERR Busy` write is best-effort on a nonblocking socket, so
/// peers that connect and never read cannot stall the admitted connection.
#[test]
fn connection_limit_shed_never_blocks_the_loop() {
    let a = gen::grid2d_laplacian(6, 6);
    let knobs = Knobs {
        max_conns: 1,
        ..DEFAULTS
    };
    on_both_tiers(knobs, |tier, stack| {
        let mut client = stack.client();
        let fp = client.load(&a).unwrap().fingerprint;

        // peers that connect but never read a byte
        let rejected: Vec<TcpStream> = (0..8).map(|_| common::connect(&stack.addr)).collect();

        // the admitted connection keeps being served promptly
        for seed in 0..4 {
            let b = gen::random_rhs(36, 1, seed);
            assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 36, "{tier}");
        }

        // each rejected peer got the best-effort bare ERR Busy, then a close
        for (i, mut s) in rejected.into_iter().enumerate() {
            let (opcode, body) = protocol::read_frame(&mut s)
                .unwrap_or_else(|e| panic!("{tier}: peer {i} never got ERR Busy: {e}"));
            assert_eq!(opcode, op::ERR);
            let (code, _, hint) = protocol::parse_err(&body).unwrap();
            assert_eq!(code, Some(ErrorCode::Busy), "{tier}, peer {i}");
            assert!(hint.is_some(), "shed carries a retry hint");
            common::assert_closed(&mut s);
        }
    });
}

/// The keys README.md's STATS reference lists under `heading`, in order.
fn readme_keys(heading: &str) -> Vec<String> {
    let readme = include_str!("../../../README.md");
    let table = readme
        .split(&format!("| {heading} | meaning |"))
        .nth(1)
        .unwrap_or_else(|| panic!("README.md has no `{heading}` table"));
    let rows = table.lines().skip(2).take_while(|l| l.starts_with("| `"));
    rows.map(|l| l[3..].split('`').next().unwrap().to_string())
        .collect()
}

/// Docs and code cannot drift: every key a live `STATS` reply returns has
/// a README row, and every README row is a live key — the server table on
/// a server, both tables on a router.
#[test]
fn stats_keys_match_the_readme_reference() {
    on_both_tiers(DEFAULTS, |tier, stack| {
        let mut live: Vec<String> = stack
            .client()
            .stats()
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let mut documented = readme_keys("server key");
        if stack.router.is_some() {
            documented.extend(readme_keys("router key"));
        }
        live.sort_unstable();
        documented.sort_unstable();
        assert_eq!(live, documented, "{tier}");
    });
}
