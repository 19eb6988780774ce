//! End-to-end tests of the solve service over real loopback TCP.

mod common;

use std::time::Duration;

use trisolv_core::SparseCholeskySolver;
use trisolv_matrix::{gen, rng::Rng, DenseMatrix};
use trisolv_server::{protocol, protocol::op, protocol::ErrorCode};
use trisolv_server::{
    BatchOptions, Client, ClientError, Engine, EngineOptions, ExecMode, Fingerprint, Server,
    ServerOptions,
};

fn server_opts(exec: ExecMode, max_batch: usize, workers: usize) -> ServerOptions {
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

#[test]
fn tcp_round_trip_load_solve_stats_evict() {
    let server = Server::spawn(server_opts(ExecMode::Threaded, 4, 8)).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let a = gen::grid2d_laplacian(10, 10);
    let loaded = client.load(&a).unwrap();
    assert_eq!(loaded.n, 100);
    assert!(!loaded.already_cached);
    assert_eq!(loaded.fingerprint, Fingerprint::of_matrix(&a));
    assert!(client.load(&a).unwrap().already_cached);

    let b = gen::random_rhs(100, 1, 5);
    let x = client.solve(loaded.fingerprint, b.col(0)).unwrap();
    let mut xm = DenseMatrix::zeros(100, 1);
    xm.col_mut(0).copy_from_slice(&x);
    let ax = a.spmv_sym_lower(&xm).unwrap();
    assert!(ax.max_abs_diff(&b).unwrap() < 1e-10);

    let stats = client.stats().unwrap();
    let get = |k: &str| {
        stats
            .iter()
            .find(|(key, _)| key == k)
            .unwrap_or_else(|| panic!("missing stat {k}"))
            .1
    };
    assert_eq!(get("entries"), 1);
    assert_eq!(get("solves_ok"), 1);
    assert!(get("resident_bytes") > 0);
    // cache-occupancy gauges (router placement inputs) mirror the legacy keys
    assert_eq!(get("cache_entries"), get("entries"));
    assert_eq!(get("cache_bytes"), get("resident_bytes"));
    assert!(get("cache_bytes") > 0);

    assert!(client.evict(loaded.fingerprint).unwrap());
    assert!(!client.evict(loaded.fingerprint).unwrap());

    client.shutdown_server().unwrap();
    server.join();
}

/// Satellite: two sequential solves through a [`ClientPool`] ride one TCP
/// connection — the second checkout reuses the parked idle connection
/// instead of dialing, pinned by the server's `connections_total` counter.
#[test]
fn pooled_clients_reuse_one_connection() {
    use trisolv_server::{ClientOptions, ClientPool};
    let server = Server::spawn(server_opts(ExecMode::Seq, 1, 2)).unwrap();
    let addr = server.local_addr().to_string();

    let a = gen::grid2d_laplacian(6, 6);
    let fp = {
        let pool = ClientPool::new(&addr, ClientOptions::default(), 4);
        let mut c = pool.get().unwrap();
        let fp = c.load(&a).unwrap().fingerprint;
        let b = gen::random_rhs(36, 1, 1);
        c.solve(fp, b.col(0)).unwrap();
        drop(c); // parks the connection
        assert_eq!(pool.idle_count(), 1);
        let mut c2 = pool.get().unwrap();
        assert_eq!(pool.idle_count(), 0, "second checkout took the idle conn");
        c2.solve(fp, b.col(0)).unwrap();
        fp
    };

    // LOAD + two solves all happened over a single connection
    let mut probe = Client::connect(&addr).unwrap();
    let stats = probe.stats().unwrap();
    let total = stats
        .iter()
        .find(|(k, _)| k == "connections_total")
        .unwrap()
        .1;
    assert_eq!(
        total, 2,
        "one pooled connection + this probe; a fresh dial per solve would show more"
    );
    // a discarded connection is not returned to the pool
    let pool = ClientPool::new(&addr, ClientOptions::default(), 4);
    let mut c = pool.get().unwrap();
    c.solve(fp, gen::random_rhs(36, 1, 2).col(0)).unwrap();
    c.discard();
    assert_eq!(pool.idle_count(), 0);
    probe.shutdown_server().unwrap();
    server.join();
}

/// Satellite: N concurrent single-RHS clients against one cached factor all
/// get answers bit-identical to `seq::solve` (the `SparseCholeskySolver`
/// sequential path) on the same inputs — property-style over seeded random
/// SPD matrices. The server runs the `Seq` executor, whose blocked solves
/// are column-for-column bit-identical to the sequential single-RHS path.
#[test]
fn concurrent_solves_bit_identical_to_seq() {
    let server = Server::spawn(server_opts(ExecMode::Seq, 8, 16)).unwrap();
    let addr = server.local_addr().to_string();

    for trial in 0..3u64 {
        let n = 50 + 10 * trial as usize;
        let a = gen::random_spd(n, 5, 100 + trial);
        let reference = SparseCholeskySolver::factor(&a).unwrap();
        let fp = Client::connect(&addr)
            .unwrap()
            .load(&a)
            .unwrap()
            .fingerprint;

        let nclients = 8;
        let rounds = 4;
        std::thread::scope(|scope| {
            for c in 0..nclients {
                let addr = addr.clone();
                let reference = &reference;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    let mut rng = Rng::seed_from_u64(trial * 1000 + c);
                    for _ in 0..rounds {
                        let mut b = DenseMatrix::zeros(n, 1);
                        for v in b.col_mut(0) {
                            *v = rng.range_f64(-1.0, 1.0);
                        }
                        let x = client.solve(fp, b.col(0)).unwrap();
                        let expect = reference.solve(&b);
                        assert_eq!(
                            x.as_slice(),
                            expect.col(0),
                            "answer not bit-identical to the sequential solve"
                        );
                    }
                });
            }
        });
    }
    server.join();
}

/// The threaded executor under the same concurrent load: answers must agree
/// with the sequential solver to tight accuracy (its different but
/// equivalent child-update accumulation order perturbs only the last bits).
#[test]
fn concurrent_threaded_solves_match_seq_closely() {
    let server = Server::spawn(server_opts(ExecMode::Threaded, 8, 16)).unwrap();
    let addr = server.local_addr().to_string();
    let n = 80;
    let a = gen::random_spd(n, 5, 77);
    let reference = SparseCholeskySolver::factor(&a).unwrap();
    let fp = Client::connect(&addr)
        .unwrap()
        .load(&a)
        .unwrap()
        .fingerprint;

    std::thread::scope(|scope| {
        for c in 0..8u64 {
            let addr = addr.clone();
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut rng = Rng::seed_from_u64(500 + c);
                for _ in 0..4 {
                    let mut b = DenseMatrix::zeros(n, 1);
                    for v in b.col_mut(0) {
                        *v = rng.range_f64(-1.0, 1.0);
                    }
                    let x = client.solve(fp, b.col(0)).unwrap();
                    let expect = reference.solve(&b);
                    let maxdiff = x
                        .iter()
                        .zip(expect.col(0))
                        .map(|(p, q)| (p - q).abs())
                        .fold(0.0f64, f64::max);
                    assert!(maxdiff < 1e-12, "threaded answer drifted: {maxdiff:e}");
                }
            });
        }
    });
    let stats = server.engine().stats();
    assert!(stats.batches > 0);
    assert_eq!(stats.batched_cols, stats.solves_ok);
    server.join();
}

/// Acceptance: the server survives malformed payloads, an oversized RHS and
/// an unknown fingerprint without crashing, answering protocol errors.
/// (Frames the front end refuses before dispatch — bad length prefixes,
/// failed checksums — are `crates/router/tests/contract.rs`'s.)
#[test]
fn server_survives_hostile_input() {
    let server = Server::spawn(server_opts(ExecMode::Threaded, 4, 4)).unwrap();
    let addr = server.local_addr().to_string();

    let a = gen::grid2d_laplacian(6, 6);
    let mut client = Client::connect(&addr).unwrap();
    let fp = client.load(&a).unwrap().fingerprint;

    // 1. oversized RHS: structured dimension-mismatch error, connection
    //    stays usable
    let err = client.solve(fp, &vec![1.0; 500]).unwrap_err();
    match err {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, Some(ErrorCode::DimensionMismatch));
            assert!(
                message.contains("500") && message.contains("36"),
                "{message}"
            );
        }
        other => panic!("expected server error, got {other:?}"),
    }

    // 2. unknown fingerprint: structured error, connection stays usable
    let err = client.solve(Fingerprint(1, 2), &vec![0.0; 36]).unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server {
            code: Some(ErrorCode::UnknownFingerprint),
            ..
        }
    ));

    // 3. unknown opcode: structured error under the request's id,
    //    connection stays usable
    let mut reply_to = |opcode: u8, rid: u64, inner: &[u8]| {
        client
            .send_raw(&protocol::encode_v4(opcode, rid, inner))
            .unwrap();
        let (ropc, body) = client.recv_raw().unwrap();
        let (got, inner) = protocol::unwrap_v4(ropc, &body).expect("enveloped reply");
        assert_eq!(got, rid, "reply echoes the request id");
        (ropc, inner.to_vec())
    };
    let (opcode, inner) = reply_to(0x7E, 901, &[1, 2, 3]);
    assert_eq!(opcode, op::ERR);
    assert_eq!(common::err_code(&inner), ErrorCode::UnknownOpcode);

    // 4. truncated SOLVE payload: structured error, connection stays usable
    let (opcode, inner) = reply_to(op::SOLVE, 902, &[0xAB; 7]);
    assert_eq!(opcode, op::ERR);
    assert_eq!(common::err_code(&inner), ErrorCode::Malformed);

    // 5. LOAD header with `ncols == u64::MAX`: the `ncols + 1` on hostile
    //    input is a checked add — malformed, not a panic answered Internal
    let header = protocol::Builder::new().u64(1).u64(u64::MAX).u64(0).build();
    let (opcode, inner) = reply_to(op::LOAD, 903, &header);
    assert_eq!(opcode, op::ERR);
    assert_eq!(common::err_code(&inner), ErrorCode::Malformed);

    // ...the same connection still solves correctly
    let b = gen::random_rhs(36, 1, 1);
    assert_eq!(client.solve(fp, b.col(0)).unwrap().len(), 36);

    // 6. non-SPD LOAD: structured error, not a worker panic
    let n = 4;
    let bad = trisolv_matrix::CscMatrix::from_parts(
        n,
        n,
        (0..=n).collect(),
        (0..n).collect(),
        vec![-1.0; n],
    )
    .unwrap();
    let err = client.load(&bad).unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server {
            code: Some(ErrorCode::NotSpd),
            ..
        }
    ));

    client.shutdown_server().unwrap();
    server.join();
}

/// The in-process load generator against a live server: non-zero completed
/// requests, zero errors, and consistent engine counters.
#[test]
fn loadgen_smoke() {
    let server = Server::spawn(server_opts(ExecMode::Threaded, 4, 8)).unwrap();
    let addr = server.local_addr().to_string();
    let a = gen::grid2d_laplacian(12, 12);
    let loaded = Client::connect(&addr).unwrap().load(&a).unwrap();

    let report = trisolv_server::run_load(&trisolv_server::LoadGenOptions {
        addr: addr.clone(),
        fingerprint: loaded.fingerprint,
        n: loaded.n,
        clients: 4,
        duration: Duration::from_millis(300),
        seed: 7,
        deadline_ms: 0,
        client: trisolv_server::ClientOptions::default(),
        idle_conns: 0,
    })
    .unwrap();
    assert!(report.requests > 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert!(report.p50_us > 0.0 && report.p99_us >= report.p50_us);
    assert_eq!(server.engine().stats().solves_ok, report.requests);
    server.join();
}

/// Certified solves over TCP: the reply carries the refinement
/// certificate, SOLVEs without the optional flags byte still work on the
/// same connection, and unknown flag bits are rejected as malformed.
#[test]
fn tcp_certified_solve_round_trip() {
    let server = Server::spawn(server_opts(ExecMode::Threaded, 4, 4)).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let a = gen::grid2d_laplacian(9, 9);
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(81, 1, 11);

    let reply = client.solve_certified(fp, b.col(0), 0).unwrap();
    assert!(reply.certified, "backward error {}", reply.backward_error);
    assert!(reply.backward_error <= 1e-10);
    assert_eq!(reply.x.len(), 81);
    let mut xm = DenseMatrix::zeros(81, 1);
    xm.col_mut(0).copy_from_slice(&reply.x);
    let ax = a.spmv_sym_lower(&xm).unwrap();
    assert!(ax.max_abs_diff(&b).unwrap() < 1e-10);

    // a SOLVE without the flags byte still works on the same connection
    let x2 = client.solve(fp, b.col(0)).unwrap();
    assert_eq!(x2.len(), 81);

    // unknown flag bits are a malformed request, not a panic
    let mut payload = common::solve_payload(fp, b.col(0));
    payload.push(0x80);
    client
        .send_raw(&protocol::encode_v4(op::SOLVE, 55, &payload))
        .unwrap();
    let (opcode, payload) = client.recv_raw().unwrap();
    assert_eq!(opcode, op::ERR);
    let (rid, inner) = protocol::unwrap_v4(opcode, &payload).unwrap();
    assert_eq!(rid, 55);
    assert_eq!(common::err_code(inner), ErrorCode::Malformed);

    let stats = client.stats().unwrap();
    let get = |k: &str| stats.iter().find(|(key, _)| key == k).unwrap().1;
    assert_eq!(get("certified_solves"), 1);
    assert_eq!(get("solves_ok"), 2);

    client.shutdown_server().unwrap();
    server.join();
}

/// The full self-healing drill over TCP: an injected `cache.torn` fault
/// silently corrupts the resident factor, the per-solve verify cadence
/// detects it, the engine refactors from the retained matrix, and the
/// answer is bit-identical to a fresh sequential solver — the client never
/// sees anything but correct replies.
#[test]
fn tcp_cache_corruption_self_heals() {
    let mut opts = server_opts(ExecMode::Seq, 1, 4);
    opts.engine.verify_every = 1;
    opts.fault = trisolv_server::FaultPlan::parse("cache.torn=every:3").unwrap();
    let server = Server::spawn(opts).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let a = gen::random_spd(70, 5, 42);
    let fp = client.load(&a).unwrap().fingerprint;
    let reference = SparseCholeskySolver::factor(&a).unwrap();

    let mut rng = Rng::seed_from_u64(99);
    for round in 0..9 {
        let mut b = DenseMatrix::zeros(70, 1);
        for v in b.col_mut(0) {
            *v = rng.range_f64(-1.0, 1.0);
        }
        let x = client.solve(fp, b.col(0)).unwrap();
        assert_eq!(
            x.as_slice(),
            reference.solve(&b).col(0),
            "round {round}: answer not bit-identical after self-heal"
        );
    }
    let stats = client.stats().unwrap();
    let get = |k: &str| stats.iter().find(|(key, _)| key == k).unwrap().1;
    assert_eq!(get("self_heals"), 3, "corruption fired on rounds 3, 6, 9");
    assert!(get("integrity_checks") >= 9);
    assert!(get("faults_injected") >= 3);
    assert_eq!(get("solves_ok"), 9);

    client.shutdown_server().unwrap();
    server.join();
}

/// An engine constructed directly (no TCP) also honors the batching
/// counters contract used by `bench_server`.
#[test]
fn in_process_engine_batches_concurrent_requests() {
    let engine = Engine::new(EngineOptions {
        exec: ExecMode::Threaded,
        batch: BatchOptions {
            max_batch: 8,
            window: Duration::from_millis(20),
            wait_timeout: Duration::from_secs(20),
        },
        ..EngineOptions::default()
    });
    let a = gen::grid2d_laplacian(8, 8);
    let fp = engine.load(&a).unwrap().fingerprint;
    let nreq = 16u64;
    std::thread::scope(|scope| {
        for i in 0..nreq {
            let engine = &engine;
            scope.spawn(move || {
                let b = gen::random_rhs(64, 1, i);
                engine.solve(fp, b.col(0).to_vec()).unwrap();
            });
        }
    });
    let s = engine.stats();
    assert_eq!(s.solves_ok, nreq);
    assert_eq!(s.batched_cols, nreq);
    assert!(
        s.batches < nreq,
        "concurrent requests should share batches: {s:?}"
    );
    assert!(s.max_batch >= 2);
}

/// `STATS` on the wire: the exact key order, and every value equal to the
/// engine's own snapshot after a scripted mix of requests.
#[test]
fn stats_reply_pins_key_order_and_matches_the_engine_snapshot() {
    let server = Server::spawn(server_opts(ExecMode::Seq, 4, 2)).unwrap();
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();
    let a = gen::grid2d_laplacian(6, 6);
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(36, 1, 3);
    client.solve(fp, b.col(0)).unwrap();
    assert!(client.solve(fp, &[1.0; 35]).is_err());
    assert!(client.solve_certified(fp, b.col(0), 0).unwrap().certified);
    assert!(client.evict(fp).unwrap());
    let got = client.stats().unwrap();

    let s = server.engine().stats();
    let o = server.engine().options();
    let c = s.cache;
    let want = [
        ("hits", c.hits),
        ("misses", c.misses),
        ("evictions", c.evictions),
        ("entries", c.entries as u64),
        ("resident_bytes", c.resident_bytes as u64),
        ("cache_entries", c.entries as u64),
        ("cache_bytes", c.resident_bytes as u64),
        ("budget_bytes", o.budget_bytes as u64),
        ("solves_ok", s.solves_ok),
        ("solves_err", s.solves_err),
        ("batches", s.batches),
        ("batched_cols", s.batched_cols),
        ("max_batch", s.max_batch as u64),
        ("max_pending", o.max_pending as u64),
        ("shed", s.shed),
        ("deadline_misses", s.deadline_misses),
        ("panics_caught", s.panics_caught),
        ("exec_fallbacks", s.exec_fallbacks),
        ("nonfinite_rejected", s.nonfinite_rejected),
        ("breakdowns", s.breakdowns),
        ("worker_respawns", s.worker_respawns),
        ("faults_injected", s.faults_injected),
        ("integrity_checks", s.integrity_checks),
        ("self_heals", s.self_heals),
        ("certified_solves", s.certified_solves),
        ("connections_open", s.connections_open),
        ("connections_total", s.connections_total),
        ("frames_pipelined", s.frames_pipelined),
        ("load_hits", s.load_hits),
        ("persist_writes", s.persist_writes),
        ("persist_recovered", s.persist_recovered),
        ("persist_dropped", s.persist_dropped),
        ("f32_solves", s.f32_solves),
        ("precision_fallbacks", s.precision_fallbacks),
        ("demoted_factors", s.demoted_factors),
        ("crc_rejects", s.crc_rejects),
    ];
    let want: Vec<(String, u64)> = want.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    assert_eq!(got, want);
    // the script moved the counters it should have
    assert_eq!((s.solves_ok, s.solves_err, s.certified_solves), (2, 1, 1));
    assert_eq!((c.hits, c.entries, s.connections_total), (3, 0, 1));
    server.join();
}
