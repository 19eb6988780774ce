//! End-to-end router tests over real loopback TCP with in-process
//! backends: protocol transparency, replication, STATS aggregation,
//! per-replica EVICT outcomes, failover, error propagation, and how the
//! backend side treats stray replies and peers that refuse the handshake.

#[path = "../../server/tests/common/mod.rs"]
mod common;

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use trisolv_matrix::{gen, DenseMatrix};
use trisolv_router::{Ring, Router, RouterOptions};
use trisolv_server::protocol::{self, op, ErrorCode};
use trisolv_server::{
    BatchOptions, Client, ClientError, EngineOptions, ExecMode, Fingerprint, ReplicaEvict, Server,
    ServerOptions,
};

fn backend_opts() -> ServerOptions {
    ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        engine: EngineOptions {
            exec: ExecMode::Seq,
            batch: BatchOptions {
                max_batch: 4,
                window: Duration::from_millis(1),
                wait_timeout: Duration::from_secs(20),
            },
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    }
}

fn spawn_fleet(n: usize) -> (Vec<trisolv_server::RunningServer>, Vec<String>) {
    let servers: Vec<_> = (0..n)
        .map(|_| Server::spawn(backend_opts()).unwrap())
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    (servers, addrs)
}

fn router_opts(backends: Vec<String>, replication: usize) -> RouterOptions {
    RouterOptions {
        backends,
        replication,
        probe_interval: Duration::from_millis(20),
        ..RouterOptions::default()
    }
}

fn check_solution(a: &trisolv_matrix::CscMatrix, b: &DenseMatrix, x: &[f64]) {
    let n = a.nrows();
    let mut xm = DenseMatrix::zeros(n, 1);
    xm.col_mut(0).copy_from_slice(x);
    let ax = a.spmv_sym_lower(&xm).unwrap();
    assert!(ax.max_abs_diff(b).unwrap() < 1e-10);
}

#[test]
fn router_is_protocol_transparent_and_replicates() {
    let (servers, addrs) = spawn_fleet(3);
    let router = Router::spawn(router_opts(addrs.clone(), 2)).unwrap();
    assert!(
        router.wait_healthy(3, Duration::from_secs(10)),
        "all 3 backends should connect"
    );

    // an unmodified single-server client works through the router
    let mut client = Client::connect(router.local_addr().to_string()).unwrap();
    let a = gen::grid2d_laplacian(10, 10);
    let loaded = client.load(&a).unwrap();
    assert_eq!(loaded.n, 100);
    assert_eq!(loaded.fingerprint, Fingerprint::of_matrix(&a));

    let b = gen::random_rhs(100, 1, 5);
    let x = client.solve(loaded.fingerprint, b.col(0)).unwrap();
    check_solution(&a, &b, &x);

    // fleet STATS: summed backend gauges + router_* keys. R=2 put the
    // factor on exactly two of the three caches.
    let stats = client.stats().unwrap();
    let get = |k: &str| {
        stats
            .iter()
            .find(|(key, _)| key == k)
            .unwrap_or_else(|| panic!("missing stat {k}"))
            .1
    };
    assert_eq!(get("router_backends"), 3);
    assert_eq!(get("router_backends_healthy"), 3);
    assert_eq!(get("cache_entries"), 2, "replication factor 2");
    assert!(get("cache_bytes") > 0);
    assert_eq!(get("router_retained_loads"), 1);
    assert!(get("router_requests") >= 2);

    // EVICT broadcasts and reports the outcome on each replica
    let reply = client.evict_detailed(loaded.fingerprint).unwrap();
    assert!(reply.existed);
    assert_eq!(reply.per_backend.len(), 2);
    for (addr, outcome) in &reply.per_backend {
        assert!(addrs.contains(addr), "outcome addr {addr} not a backend");
        assert_eq!(*outcome, ReplicaEvict::Evicted);
    }

    // a second evict finds nothing anywhere
    let reply = client.evict_detailed(loaded.fingerprint).unwrap();
    assert!(!reply.existed);
    assert!(reply
        .per_backend
        .iter()
        .all(|(_, o)| *o == ReplicaEvict::NotResident));

    drop(client);
    router.join();
    for s in servers {
        s.join();
    }
}

#[test]
fn solve_fails_over_when_primary_backend_dies() {
    let (mut servers, addrs) = spawn_fleet(3);
    let opts = router_opts(addrs, 2);
    let ring = Ring::new(3, opts.vnodes);
    let router = Router::spawn(opts).unwrap();
    assert!(router.wait_healthy(3, Duration::from_secs(10)));

    let mut client = Client::connect(router.local_addr().to_string()).unwrap();
    let a = gen::grid2d_laplacian(8, 8);
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(64, 1, 7);
    check_solution(&a, &b, &client.solve(fp, b.col(0)).unwrap());

    // kill the primary replica (the router's ring is a pure function of
    // the backend list, so the test can compute placement independently)
    let primary = ring.primary(fp).unwrap();
    servers.remove(primary).join();

    // the very next solve must come back correct via the surviving
    // replica — connection loss or ERR, then deterministic failover
    let x = client.solve(fp, b.col(0)).unwrap();
    check_solution(&a, &b, &x);
    assert!(router.failovers() >= 1, "failover must be recorded");
    assert!(router.healthy_backends() <= 2);

    drop(client);
    router.join();
    for s in servers {
        s.join();
    }
}

#[test]
fn permanent_errors_propagate_and_unknown_fp_exhausts_replicas() {
    let (servers, addrs) = spawn_fleet(2);
    let router = Router::spawn(router_opts(addrs, 2)).unwrap();
    assert!(router.wait_healthy(2, Duration::from_secs(10)));

    let mut client = Client::connect(router.local_addr().to_string()).unwrap();

    // a fingerprint no backend holds: both replicas answer
    // UnknownFingerprint, the failover set exhausts, and the last error
    // comes back (not a generic Busy)
    let err = client
        .solve(Fingerprint(1, 2), &[1.0, 2.0])
        .expect_err("unknown fingerprint cannot succeed");
    match err {
        ClientError::Server { code, .. } => {
            assert_eq!(code, Some(ErrorCode::UnknownFingerprint));
        }
        other => panic!("expected server error, got {other:?}"),
    }
    assert!(
        router.failovers() >= 1,
        "second replica was tried before giving up"
    );

    // a permanent error (dimension mismatch) propagates without failover
    let a = gen::grid2d_laplacian(5, 5);
    let fp = client.load(&a).unwrap().fingerprint;
    let before = router.failovers();
    let err = client
        .solve(fp, &[1.0, 2.0, 3.0])
        .expect_err("wrong-size rhs must fail");
    match err {
        ClientError::Server { code, .. } => {
            assert_eq!(code, Some(ErrorCode::DimensionMismatch));
        }
        other => panic!("expected server error, got {other:?}"),
    }
    assert_eq!(
        router.failovers(),
        before,
        "permanent errors do not re-route"
    );

    drop(client);
    router.join();
    for s in servers {
        s.join();
    }
}

#[test]
fn dead_backend_rejoins_as_warm_standby() {
    // R=1 so the factor lives on exactly one backend; killing and
    // restarting it exercises the retained-LOAD replay path end to end.
    let (servers, addrs) = spawn_fleet(1);
    let router = Router::spawn(router_opts(addrs, 1)).unwrap();
    assert!(router.wait_healthy(1, Duration::from_secs(10)));

    let mut client = Client::connect(router.local_addr().to_string()).unwrap();
    let a = gen::grid2d_laplacian(6, 6);
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(36, 1, 3);
    check_solution(&a, &b, &client.solve(fp, b.col(0)).unwrap());

    // kill the only backend and bring a fresh (empty-cache) one up on the
    // same address so the router's probe reconnects to it
    let addr = servers[0].local_addr();
    for s in servers {
        s.join();
    }
    let replacement = Server::spawn(ServerOptions {
        addr: addr.to_string(),
        ..backend_opts()
    })
    .unwrap();
    assert!(
        router.wait_healthy(1, Duration::from_secs(10)),
        "backend should rejoin after restart"
    );

    // the replacement never saw the LOAD — only the router's warm-standby
    // replay can make this solve succeed
    let mut c2 = Client::connect(router.local_addr().to_string()).unwrap();
    let x = c2.solve_with_deadline(fp, b.col(0), 20_000).unwrap();
    check_solution(&a, &b, &x);

    drop(client);
    drop(c2);
    router.join();
    replacement.join();
}

#[test]
fn hedged_solve_rescues_a_stalled_primary_replica() {
    // Backend 1 stalls every solve far longer than the hedge threshold;
    // backend 0 is clean. With R=2 the factor lives on both, so a solve
    // whose primary is the stalled replica is exactly the tail the hedge
    // exists for: the duplicate lands on the clean replica, its reply
    // wins, and the stalled arm resolves later as a discarded late loser.
    let fast = Server::spawn(backend_opts()).unwrap();
    // the solve fault site lives in the threaded executor (which answers
    // bit-identically to the sequential reference by construction)
    let mut slow_opts = backend_opts();
    slow_opts.engine.exec = ExecMode::Threaded;
    slow_opts.fault = trisolv_server::FaultPlan::parse("solve.stall=every:1,ms:2000").unwrap();
    let slow = Server::spawn(slow_opts).unwrap();
    let addrs = vec![fast.local_addr().to_string(), slow.local_addr().to_string()];
    let opts = RouterOptions {
        backends: addrs,
        replication: 2,
        probe_interval: Duration::from_millis(20),
        hedge_after: Duration::from_millis(25),
        hedge_budget: 1.0,
        ..RouterOptions::default()
    };
    let ring = Ring::new(2, opts.vnodes);
    let router = Router::spawn(opts).unwrap();
    assert!(router.wait_healthy(2, Duration::from_secs(10)));

    let mut client = Client::connect(router.local_addr().to_string()).unwrap();
    // walk grid sizes until the ring places a factor's primary on the
    // stalled backend (placement is a pure function of the fingerprint,
    // so the test can pick its victim deterministically)
    let (a, n) = (4..32)
        .map(|k| (gen::grid2d_laplacian(k, k), k * k))
        .find(|(a, _)| ring.primary(Fingerprint::of_matrix(a)) == Some(1))
        .expect("some grid must land on backend 1");
    let fp = client.load(&a).unwrap().fingerprint;

    let b = gen::random_rhs(n, 1, 17);
    let t0 = std::time::Instant::now();
    let x = client.solve_with_deadline(fp, b.col(0), 10_000).unwrap();
    let elapsed = t0.elapsed();
    check_solution(&a, &b, &x);
    assert!(
        elapsed < Duration::from_millis(1500),
        "hedge should beat the 2 s stall, took {elapsed:?}"
    );
    assert!(router.hedges_sent() >= 1, "a hedge was dispatched");
    assert!(router.hedge_wins() >= 1, "the hedge's reply won");

    // the stalled arm's eventual reply is a late loser, not an orphan
    // condemnation: both backends stay healthy and keep serving
    std::thread::sleep(Duration::from_millis(2200));
    assert_eq!(router.healthy_backends(), 2);
    let x2 = client.solve_with_deadline(fp, b.col(0), 10_000).unwrap();
    check_solution(&a, &b, &x2);
    assert_eq!(x, x2, "hedged and direct answers are bit-identical");

    drop(client);
    router.join();
    fast.join();
    slow.join();
}

#[test]
fn fleet_wide_evict_drops_the_retained_copy_so_rejoin_cannot_replay_it() {
    // Regression guard: a fleet-wide EVICT must also drop the router's
    // retained LOAD payload. If it lingered, a backend restart would get
    // the evicted factor replayed right back — an eviction that silently
    // un-evicts itself.
    let (servers, addrs) = spawn_fleet(1);
    let router = Router::spawn(router_opts(addrs, 1)).unwrap();
    assert!(router.wait_healthy(1, Duration::from_secs(10)));

    let mut client = Client::connect(router.local_addr().to_string()).unwrap();
    let a = gen::grid2d_laplacian(6, 6);
    let fp = client.load(&a).unwrap().fingerprint;
    let reply = client.evict_detailed(fp).unwrap();
    assert!(reply.existed);

    let stats = client.stats().unwrap();
    let retained = stats
        .iter()
        .find(|(k, _)| k == "router_retained_loads")
        .unwrap()
        .1;
    assert_eq!(retained, 0, "EVICT must drop the retained LOAD copy");

    // restart the backend on the same address; the rejoin replay must have
    // nothing to replay, so the evicted fingerprint stays unknown
    let addr = servers[0].local_addr();
    for s in servers {
        s.join();
    }
    let replacement = Server::spawn(ServerOptions {
        addr: addr.to_string(),
        ..backend_opts()
    })
    .unwrap();
    assert!(router.wait_healthy(1, Duration::from_secs(10)));

    let b = gen::random_rhs(36, 1, 3);
    let mut c2 = Client::connect(router.local_addr().to_string()).unwrap();
    let err = c2.solve_with_deadline(fp, b.col(0), 20_000).unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, Some(ErrorCode::UnknownFingerprint)),
        other => panic!("expected an unknown-fingerprint error, got {other:?}"),
    }

    drop(client);
    drop(c2);
    router.join();
    replacement.join();
}

/// Concurrent clients through one router — blocking request/response
/// clients beside a hand-pipelined one — all get answers bit-identical to
/// each other: the envelope is framing, not semantics, and request ids
/// keep interleaved traffic straight.
#[test]
fn mixed_concurrent_clients_round_trip_through_one_router() {
    let (servers, addrs) = spawn_fleet(2);
    let router = Router::spawn(router_opts(addrs, 2)).unwrap();
    assert!(router.wait_healthy(2, Duration::from_secs(10)));
    let raddr = router.local_addr().to_string();

    let a = gen::grid2d_laplacian(8, 8);
    let fp = Client::connect(&raddr)
        .unwrap()
        .load(&a)
        .unwrap()
        .fingerprint;
    let b = gen::random_rhs(64, 1, 13);
    let expect = Client::connect(&raddr)
        .unwrap()
        .solve(fp, b.col(0))
        .unwrap();
    check_solution(&a, &b, &expect);

    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut c = Client::connect(&raddr).unwrap();
                for _ in 0..5 {
                    assert_eq!(c.solve(fp, b.col(0)).unwrap(), expect);
                }
            });
        }
        scope.spawn(|| {
            let mut raw = common::hello(&raddr);
            let inner = common::solve_payload(fp, b.col(0));
            for rid in 1..=6u64 {
                common::send(&mut raw, op::SOLVE, rid, &inner);
            }
            for (rid, (opcode, x)) in common::recv_by_id(&mut raw, 6) {
                assert_eq!(opcode, op::OK_SOLVED, "request {rid}");
                assert_eq!(common::solved_x(&x), expect, "request {rid}");
            }
        });
    });
    let stats = Client::connect(&raddr).unwrap().stats().unwrap();
    assert_eq!(common::stat(&stats, "router_orphan_replies"), 0);
    assert_eq!(common::stat(&stats, "router_crc_rejects"), 0);

    router.join();
    for s in servers {
        s.join();
    }
}

/// Regression: a backend reply that correlates to nothing (here every
/// STATS is answered twice) is counted as an orphan and dropped — it must
/// not condemn the connection, which once turned one stray frame into a
/// full teardown and a rejoin storm.
#[test]
fn orphan_reply_is_counted_and_does_not_condemn_the_backend() {
    let (addr, dials, _seen) = common::stub_peer(common::ok_hello, |opcode, wire| {
        if opcode == op::STATS {
            // a minimal OK_STATS (zero pairs), then an unsolicited duplicate
            let reply =
                protocol::encode_v4(op::OK_STATS, wire, &protocol::Builder::new().u64(0).build());
            [reply.clone(), reply].concat()
        } else {
            let p = protocol::err_payload(ErrorCode::UnknownFingerprint, "stub", None);
            protocol::encode_v4(op::ERR, wire, &p)
        }
    });
    let router = Router::spawn(router_opts(vec![addr], 1)).unwrap();
    assert!(router.wait_healthy(1, Duration::from_secs(10)));

    let mut client = Client::connect(router.local_addr().to_string()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(common::stat(&stats, "router_backends_healthy"), 1);

    // the duplicate lands asynchronously; wait for the counter
    let start = Instant::now();
    while router.orphan_replies() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "orphan reply was never counted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // the same backend connection still answers: never torn down, never
    // redialled, and a stray frame is not a corrupt one
    let stats = client.stats().unwrap();
    assert_eq!(common::stat(&stats, "router_backends_healthy"), 1);
    assert!(common::stat(&stats, "router_orphan_replies") >= 1);
    assert_eq!(common::stat(&stats, "router_crc_rejects"), 0);
    assert_eq!(dials.load(Ordering::SeqCst), 1);

    drop(client);
    router.join();
}

/// A backend that answers the router's `HELLO` with `ERR UnknownOpcode`
/// (what a pre-v4 server said) is a failed dial, not a downgrade: it stays
/// on the breaker's probe schedule and never sees a request.
#[test]
fn backend_refusing_hello_stays_probing_and_serves_no_traffic() {
    let (addr, dials, seen) = common::stub_peer(
        || {
            let p = protocol::err_payload(
                ErrorCode::UnknownOpcode,
                "unknown request opcode 0x06",
                None,
            );
            protocol::encode_frame(op::ERR, &p)
        },
        // never reached: `seen` below proves only HELLOs arrived
        |_, _| Vec::new(),
    );
    let router = Router::spawn(router_opts(vec![addr], 1)).unwrap();

    // the breaker keeps probing: wait for a few redials
    let start = Instant::now();
    while dials.load(Ordering::SeqCst) < 3 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the refused backend must stay on the probe schedule"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(router.healthy_backends(), 0);

    // client traffic is answered by the router itself: nowhere to route
    let mut client = Client::connect(router.local_addr().to_string()).unwrap();
    let err = client.solve(Fingerprint(1, 2), &[1.0, 2.0]).unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, Some(ErrorCode::Busy)),
        other => panic!("expected ERR Busy, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(common::stat(&stats, "router_backends_healthy"), 0);
    assert!(seen.lock().unwrap().iter().all(|&o| o == op::HELLO));

    drop(client);
    router.join();
}

/// `STATS` through a router: the per-key fleet sum, sorted by key, then the
/// router's own keys in their fixed order.
#[test]
fn stats_reply_is_the_sorted_fleet_sum_then_the_router_keys() {
    let (servers, addrs) = spawn_fleet(2);
    let router = Router::spawn(RouterOptions {
        hedge_after: Duration::ZERO, // a hedge would add a second solve
        ..router_opts(addrs, 2)
    })
    .unwrap();
    assert!(router.wait_healthy(2, Duration::from_secs(10)));
    let mut client = Client::connect(router.local_addr().to_string()).unwrap();
    let a = gen::grid2d_laplacian(6, 6);
    let fp = client.load(&a).unwrap().fingerprint;
    client.solve(fp, gen::random_rhs(36, 1, 3).col(0)).unwrap();
    let got = client.stats().unwrap();

    let (fleet, own) = got.split_at(got.len() - 11);
    let mut keys: Vec<&str> = fleet.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert!(
        fleet.iter().map(|(k, _)| k.as_str()).eq(keys),
        "fleet keys sorted"
    );
    assert_eq!(fleet.len(), 36);
    let sum = |f: fn(&trisolv_server::EngineStats) -> u64| -> u64 {
        servers.iter().map(|s| f(&s.engine().stats())).sum()
    };
    assert_eq!(common::stat(fleet, "solves_ok"), sum(|s| s.solves_ok));
    assert_eq!(common::stat(fleet, "solves_ok"), 1);
    assert_eq!(common::stat(fleet, "cache_entries"), 2, "replicated twice");
    assert_eq!(common::stat(fleet, "hits"), sum(|s| s.cache.hits));
    assert_eq!(common::stat(fleet, "batches"), sum(|s| s.batches));

    let own_keys: Vec<&str> = own.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        own_keys,
        [
            "router_backends",
            "router_backends_healthy",
            "router_failovers",
            "router_rejoins",
            "router_requests",
            "router_retained_loads",
            "router_retained_bytes",
            "router_hedges_sent",
            "router_hedge_wins",
            "router_crc_rejects",
            "router_orphan_replies",
        ]
    );
    assert_eq!(common::stat(own, "router_backends"), 2);
    assert_eq!(common::stat(own, "router_backends_healthy"), 2);
    assert_eq!(common::stat(own, "router_failovers"), router.failovers());
    assert_eq!(
        common::stat(own, "router_requests"),
        3,
        "LOAD, SOLVE, STATS"
    );
    assert_eq!(common::stat(own, "router_retained_loads"), 1);
    assert_eq!(
        common::stat(own, "router_hedges_sent"),
        router.hedges_sent()
    );
    assert_eq!(
        common::stat(own, "router_crc_rejects"),
        router.crc_rejects()
    );
    assert_eq!(
        common::stat(own, "router_orphan_replies"),
        router.orphan_replies()
    );
    router.join();
    for s in servers {
        s.join();
    }
}
