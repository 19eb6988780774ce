//! Chaos/soak tests: the solve service under a seeded fault plan.
//!
//! Acceptance for the hardening PR: with faults injected at every site the
//! service must neither hang nor corrupt an answer — every `OK` response is
//! bit-identical to the sequential `SparseCholeskySolver::solve` on the same
//! inputs, every failure is a structured error the client retries through,
//! and after the storm the batch lanes are quiescent (no leaked columns).
//! All randomness is seeded, so a failure replays.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use trisolv_core::SparseCholeskySolver;
use trisolv_matrix::{gen, rng::Rng, CscMatrix, DenseMatrix};
use trisolv_server::protocol::ErrorCode;
use trisolv_server::{
    BatchOptions, Client, ClientError, ClientOptions, EngineOptions, ExecMode, FaultPlan, Server,
    ServerOptions,
};

/// Aborts the whole test process if the guarded scope is still running when
/// the budget elapses — "no hangs" is part of the contract under test, and a
/// wedged soak must fail loudly rather than eat the CI timeout.
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(label: &'static str, budget: Duration) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        std::thread::spawn(move || {
            let start = std::time::Instant::now();
            while start.elapsed() < budget {
                if flag.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            eprintln!("watchdog: {label} exceeded {budget:?}; aborting");
            std::process::abort();
        });
        Watchdog { done }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
    }
}

fn chaos_server(exec: ExecMode, fault: &str) -> trisolv_server::RunningServer {
    Server::spawn(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        engine: EngineOptions {
            exec,
            batch: BatchOptions {
                max_batch: 4,
                window: Duration::from_millis(1),
                wait_timeout: Duration::from_secs(10),
            },
            ..EngineOptions::default()
        },
        fault: FaultPlan::parse(fault).unwrap(),
        ..ServerOptions::default()
    })
    .unwrap()
}

fn resilient_opts(seed: u64) -> ClientOptions {
    ClientOptions {
        connect_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(5),
        retries: 25,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        seed,
    }
}

/// Tentpole soak: torn frames, connection drops, slow reads and worker
/// panics all at once, against the bit-exact sequential executor. Every
/// request must eventually succeed through the retry ladder, every answer
/// must be bit-identical to the reference solver, no lane may leak a
/// column, and the watchdog must have respawned at least one worker.
#[test]
fn soak_survives_transport_and_worker_faults() {
    let _dog = Watchdog::arm("seq soak", Duration::from_secs(90));
    let server = chaos_server(
        ExecMode::Seq,
        "seed=1;write.torn=every:13;conn.drop=every:9;read.stall=every:11,ms:2;worker.panic=every:7",
    );
    let addr = server.local_addr().to_string();

    let n = 64;
    let a = gen::random_spd(n, 5, 42);
    let reference = SparseCholeskySolver::factor(&a).unwrap();
    // Loading can itself be hit by connection faults: retry it.
    let fp = {
        let mut c = Client::connect_with(&addr, resilient_opts(999)).unwrap();
        let mut fp = None;
        for _ in 0..20 {
            match c.load(&a) {
                Ok(r) => {
                    fp = Some(r.fingerprint);
                    break;
                }
                Err(e) if e.is_transient() => {
                    std::thread::sleep(Duration::from_millis(5));
                    let mut again = Client::connect_with(&addr, resilient_opts(999)).unwrap();
                    std::mem::swap(&mut c, &mut again);
                }
                Err(e) => panic!("load failed permanently: {e}"),
            }
        }
        fp.expect("LOAD never survived the fault plan")
    };

    let nclients = 6u64;
    let rounds = 30u64;
    std::thread::scope(|scope| {
        for c in 0..nclients {
            let addr = addr.clone();
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect_with(&addr, resilient_opts(c)).unwrap();
                let mut rng = Rng::seed_from_u64(7000 + c);
                for r in 0..rounds {
                    let mut b = DenseMatrix::zeros(n, 1);
                    for v in b.col_mut(0) {
                        *v = rng.range_f64(-1.0, 1.0);
                    }
                    let x = client
                        .solve_with_retry(fp, b.col(0), 0)
                        .unwrap_or_else(|e| panic!("client {c} round {r}: {e}"));
                    assert_eq!(
                        x.as_slice(),
                        reference.solve(&b).col(0),
                        "client {c} round {r}: OK answer not bit-identical under faults"
                    );
                }
            });
        }
    });

    let stats = server.engine().stats();
    // A torn or dropped reply re-runs a solve that already succeeded
    // server-side, so the counter is at-least, not exactly, the request
    // count — duplicate solves are the price of at-least-once retry.
    assert!(
        stats.solves_ok >= nclients * rounds,
        "every request must eventually succeed: {stats:?}"
    );
    assert!(
        stats.faults_injected > 0,
        "the fault plan never fired: {stats:?}"
    );
    assert!(
        stats.worker_respawns > 0,
        "worker.panic=every:7 should have killed (and respawned) a worker: {stats:?}"
    );
    assert!(
        server.engine().lanes_quiescent(),
        "a batch lane leaked in-flight state after the soak"
    );
    server.join();
}

/// Panic isolation in the executor: with `solve.panic` firing every third
/// batch the threaded executor dies repeatedly; each dead batch must be
/// re-answered by the sequential fallback (transparent to clients, counted
/// in `exec_fallbacks`) and answers stay within threaded accuracy.
#[test]
fn injected_solve_panics_degrade_to_seq_fallback() {
    let _dog = Watchdog::arm("threaded fallback soak", Duration::from_secs(60));
    let server = chaos_server(ExecMode::Threaded, "seed=2;solve.panic=every:3");
    let addr = server.local_addr().to_string();

    let n = 48;
    let a = gen::random_spd(n, 4, 17);
    let reference = SparseCholeskySolver::factor(&a).unwrap();
    let fp = Client::connect(&addr)
        .unwrap()
        .load(&a)
        .unwrap()
        .fingerprint;

    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let addr = addr.clone();
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect_with(&addr, resilient_opts(100 + c)).unwrap();
                let mut rng = Rng::seed_from_u64(8000 + c);
                for _ in 0..10 {
                    let mut b = DenseMatrix::zeros(n, 1);
                    for v in b.col_mut(0) {
                        *v = rng.range_f64(-1.0, 1.0);
                    }
                    let x = client.solve_with_retry(fp, b.col(0), 0).unwrap();
                    let expect = reference.solve(&b);
                    let maxdiff = x
                        .iter()
                        .zip(expect.col(0))
                        .map(|(p, q)| (p - q).abs())
                        .fold(0.0f64, f64::max);
                    assert!(
                        maxdiff < 1e-12,
                        "answer drifted through fallback: {maxdiff:e}"
                    );
                }
            });
        }
    });

    let stats = server.engine().stats();
    assert_eq!(stats.solves_ok, 40, "{stats:?}");
    assert!(
        stats.panics_caught > 0 && stats.exec_fallbacks > 0,
        "solve.panic=every:3 should have forced seq fallbacks: {stats:?}"
    );
    assert!(server.engine().lanes_quiescent());
    server.join();
}

/// Admission control over the wire: with `max_pending = 1` and a stalled
/// executor, a second concurrent request is shed with `ERR Busy` carrying a
/// `retry_after_ms` hint — and a retrying client rides through the shed.
#[test]
fn busy_shed_carries_retry_hint_and_is_retryable() {
    let _dog = Watchdog::arm("busy shed", Duration::from_secs(60));
    let server = Server::spawn(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        engine: EngineOptions {
            exec: ExecMode::Threaded,
            max_pending: 1,
            batch: BatchOptions {
                max_batch: 1,
                window: Duration::from_micros(100),
                wait_timeout: Duration::from_secs(10),
            },
            ..EngineOptions::default()
        },
        fault: FaultPlan::parse("seed=3;solve.stall=every:1,ms:400").unwrap(),
        ..ServerOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    let a = gen::grid2d_laplacian(6, 6);
    let mut client = Client::connect(&addr).unwrap();
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(36, 1, 3);

    std::thread::scope(|scope| {
        let addr = &addr;
        let rhs = b.col(0);
        // Occupy the single admission slot with a solve stalled for 400 ms.
        scope.spawn(move || {
            let mut hog = Client::connect(addr).unwrap();
            hog.solve(fp, rhs).unwrap();
        });
        std::thread::sleep(Duration::from_millis(100));

        // Single-shot client: shed with a structured Busy + retry hint.
        let err = client.solve(fp, b.col(0)).unwrap_err();
        match err {
            ClientError::Server {
                code,
                retry_after_ms,
                ..
            } => {
                assert_eq!(code, Some(ErrorCode::Busy));
                assert!(
                    retry_after_ms.is_some_and(|ms| ms >= 1),
                    "Busy must carry a retry_after_ms hint"
                );
            }
            other => panic!("expected ERR Busy, got {other:?}"),
        }

        // Retrying client: backs off past the stall and succeeds.
        let mut patient = Client::connect_with(addr, resilient_opts(11)).unwrap();
        patient.solve_with_retry(fp, b.col(0), 0).unwrap();
        assert!(
            patient.retry_stats().shed >= 1 || patient.retry_stats().retried >= 1,
            "the patient client should have ridden through at least one shed"
        );
    });

    assert!(server.engine().stats().shed >= 1);
    server.join();
}

/// Deadline propagation: a 1 ms client deadline cannot survive a 50 ms
/// batch window, so the boarder is expelled at seal time with `ERR
/// Deadline` — it must not stall the lane or get a late answer.
#[test]
fn expired_deadline_is_expelled_with_structured_error() {
    let _dog = Watchdog::arm("deadline expiry", Duration::from_secs(60));
    let server = Server::spawn(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        engine: EngineOptions {
            exec: ExecMode::Seq,
            batch: BatchOptions {
                max_batch: 8,
                window: Duration::from_millis(50),
                wait_timeout: Duration::from_secs(10),
            },
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();

    let a = gen::grid2d_laplacian(6, 6);
    let mut client = Client::connect(&addr).unwrap();
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(36, 1, 5);

    let err = client.solve_with_deadline(fp, b.col(0), 1).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: Some(ErrorCode::Deadline),
                ..
            }
        ),
        "expected ERR Deadline, got {err:?}"
    );
    assert_eq!(server.engine().stats().deadline_misses, 1);
    // The lane shed the expired column cleanly; a sane deadline still works.
    assert_eq!(
        client
            .solve_with_deadline(fp, b.col(0), 5_000)
            .unwrap()
            .len(),
        36
    );
    assert!(server.engine().lanes_quiescent());
    server.join();
}

/// Input hygiene over the wire: non-finite matrices and right-hand sides
/// are rejected with `ERR NonFinite` before touching the numeric kernels.
#[test]
fn non_finite_inputs_are_rejected() {
    let _dog = Watchdog::arm("non-finite rejection", Duration::from_secs(60));
    let server = Server::spawn(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let a = gen::grid2d_laplacian(5, 5);
    let fp = client.load(&a).unwrap().fingerprint;

    let nan_matrix =
        CscMatrix::from_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, f64::NAN]).unwrap();
    let err = client.load(&nan_matrix).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: Some(ErrorCode::NonFinite),
                ..
            }
        ),
        "NaN matrix must be rejected: {err:?}"
    );

    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut rhs = vec![1.0; 25];
        rhs[7] = bad;
        let err = client.solve(fp, &rhs).unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Server {
                    code: Some(ErrorCode::NonFinite),
                    ..
                }
            ),
            "rhs containing {bad} must be rejected: {err:?}"
        );
    }
    assert_eq!(server.engine().stats().nonfinite_rejected, 4);
    // The connection is still healthy.
    assert_eq!(client.solve(fp, &[1.0; 25]).unwrap().len(), 25);
    server.join();
}

/// Output hygiene: a factor so ill-scaled that the triangular solve
/// overflows must come back as `ERR NumericBreakdown`, not as a vector of
/// infinities the client would happily use.
#[test]
fn overflowing_solve_reports_numeric_breakdown() {
    let _dog = Watchdog::arm("numeric breakdown", Duration::from_secs(60));
    let server = Server::spawn(ServerOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerOptions::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // diag(1e-310): positive definite, factors fine, but x = b / 1e-310
    // overflows to infinity for any O(1) right-hand side.
    let n = 3;
    let tiny =
        CscMatrix::from_parts(n, n, (0..=n).collect(), (0..n).collect(), vec![1e-310; n]).unwrap();
    let fp = client.load(&tiny).unwrap().fingerprint;
    let err = client.solve(fp, &vec![1.0; n]).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: Some(ErrorCode::NumericBreakdown),
                ..
            }
        ),
        "overflowed solve must be flagged: {err:?}"
    );
    assert_eq!(server.engine().stats().breakdowns, 1);
    assert!(server.engine().lanes_quiescent());
    server.join();
}

/// The `write.bitflip` fault site corrupts server replies *after* the
/// envelope is sealed, so the client's checksum check must catch every
/// flipped reply — silent wire corruption cannot become a wrong answer —
/// and, the stream itself being intact, the same connection serves on.
#[test]
fn server_write_bitflips_are_caught_by_the_client_checksum() {
    let server = chaos_server(ExecMode::Seq, "write.bitflip=every:2");
    let mut client =
        Client::connect_with(&server.local_addr().to_string(), ClientOptions::default()).unwrap();

    let a = gen::grid2d_laplacian(5, 5);
    let reference = SparseCholeskySolver::factor(&a).unwrap();
    let fp = client.load(&a).unwrap().fingerprint;
    let b = gen::random_rhs(25, 1, 7);
    let mut caught = 0;
    for _ in 0..6 {
        match client.solve(fp, b.col(0)) {
            Ok(x) => assert_eq!(x.as_slice(), reference.solve(&b).col(0)),
            Err(ClientError::Protocol(msg)) if msg.contains("checksum") => caught += 1,
            Err(e) => panic!("a flipped reply must fail the checksum, got: {e}"),
        }
    }
    assert!(
        caught >= 2,
        "every other reply was flipped; caught {caught}"
    );
    assert_eq!(
        client.retry_stats().reconnects,
        0,
        "one connection throughout"
    );
    server.join();
}
