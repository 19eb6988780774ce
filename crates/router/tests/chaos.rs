//! Router chaos test (satellite d): real backend *processes* under the
//! seeded fault plan, one of them SIGKILLed mid-load.
//!
//! Acceptance: with replication 2 over three backends and the primary
//! replica of the hot factor killed without warning, every client request
//! must still succeed through the retry ladder (zero unrecovered errors),
//! every `OK` answer must be bit-identical to the sequential
//! `SparseCholeskySolver` on the same inputs, and the router must record
//! at least one failover. The backends additionally inject transport
//! faults (torn writes, connection drops) on the router-facing side, so
//! the backend breaker and the in-flight re-route path are exercised even
//! before the kill.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use trisolv_core::SparseCholeskySolver;
use trisolv_matrix::{gen, rng::Rng, DenseMatrix};
use trisolv_router::{Fleet, Ring, Router, RouterOptions};
use trisolv_server::{Client, ClientOptions, Fingerprint};

/// Aborts the process if the guarded scope outlives its budget — a wedged
/// distributed soak must fail loudly, not eat the CI timeout.
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

fn resilient_opts(seed: u64) -> ClientOptions {
    ClientOptions {
        connect_timeout: Duration::from_secs(5),
        request_timeout: Duration::from_secs(10),
        retries: 40,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(25),
        seed,
    }
}

/// Protocol-v4 chaos drill: R=2 with one replica both stalling solves
/// and flipping bits on its wire. Hedging must rescue the stalled tail
/// (at least one hedge win), the checksum trailer must catch every
/// flipped frame (at least one crc reject, zero wrong answers), and the
/// faulted backend's out-of-order late replies must never condemn its
/// connection — both backends are still healthy when the dust settles.
#[test]
fn hedged_fleet_survives_a_stalling_bitflipping_replica() {
    let _dog = Watchdog::arm("protocol v4 chaos drill", Duration::from_secs(120));

    let exe = env!("CARGO_BIN_EXE_trisolv-backend");
    let base = |extra: &[&str]| -> Vec<String> {
        ["--addr", "127.0.0.1:0", "--workers", "4"]
            .iter()
            .copied()
            .chain(extra.iter().copied())
            .map(str::to_string)
            .collect()
    };
    // clean replica: the sequential bit-exact reference executor
    let clean = Fleet::spawn(exe, &base(&["--exec", "seq"]), 1).unwrap();
    // faulted replica: threaded executor (answers bit-identically by
    // construction — the solve fault site lives there), every other solve
    // stalled well past the hedge threshold, every 6th written frame gets
    // one byte silently flipped on the wire
    let faulty = Fleet::spawn(
        exe,
        &base(&[
            "--exec",
            "threaded",
            "--fault-spec",
            "seed=7;solve.stall=every:2,ms:900;write.bitflip=every:6",
        ]),
        1,
    )
    .unwrap();

    let n = 48;
    let a = gen::random_spd(n, 5, 42);
    let reference = SparseCholeskySolver::factor(&a).unwrap();
    let fp = Fingerprint::of_matrix(&a);

    // order the backend list so the ring places this fingerprint's
    // *primary* on the faulted replica: every solve must cross the stall
    // and the bit-flips to come home correct
    let ring = Ring::new(2, trisolv_router::Ring::DEFAULT_VNODES);
    let (b0, b1) = (clean.addrs()[0].clone(), faulty.addrs()[0].clone());
    let backends = if ring.primary(fp) == Some(1) {
        vec![b0, b1]
    } else {
        vec![b1, b0]
    };

    let router = Router::spawn(RouterOptions {
        backends,
        replication: 2,
        probe_interval: Duration::from_millis(10),
        io_timeout: Duration::from_secs(2),
        deadline_cap: Duration::from_secs(4),
        hedge_after: Duration::from_millis(25),
        hedge_budget: 1.0,
        ..RouterOptions::default()
    })
    .unwrap();
    assert!(router.wait_healthy(2, Duration::from_secs(10)));
    let raddr = router.local_addr().to_string();

    {
        let mut c = Client::connect_with(&raddr, resilient_opts(500)).unwrap();
        assert_eq!(c.load(&a).unwrap().fingerprint, fp);
    }

    let nclients = 4u64;
    let rounds = 12u64;
    std::thread::scope(|scope| {
        for c in 0..nclients {
            let raddr = raddr.clone();
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect_with(&raddr, resilient_opts(c)).unwrap();
                let mut rng = Rng::seed_from_u64(8000 + c);
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
                        "client {c} round {r}: answer not bit-identical under chaos"
                    );
                }
            });
        }
    });

    // The hedges win long before the stalled replicas finish: their late
    // replies — the out-of-order losers, some bit-flipped — land *after*
    // the workload. Wait for them; the checksum rejects and the survival
    // of the connection under that barrage are the drill's whole point.
    let start = std::time::Instant::now();
    while router.crc_rejects() == 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        router.hedge_wins() >= 1,
        "a hedge must have rescued at least one stalled solve \
         (hedges_sent={})",
        router.hedges_sent()
    );
    assert!(
        router.crc_rejects() >= 1,
        "the checksum trailer must have caught at least one flipped frame"
    );
    // the drill's whole point: a replica that stalls, answers late and out
    // of order, and corrupts frames is *degraded*, never condemned — its
    // connection is still up and the fleet is whole
    assert_eq!(
        router.healthy_backends(),
        2,
        "the faulted backend's connection must never be condemned by a \
         late, out-of-order, or corrupt reply"
    );

    drop(clean);
    drop(faulty);
    router.join();
}

#[test]
fn fleet_survives_faults_and_a_sigkilled_backend() {
    let _dog = Watchdog::arm("router chaos", Duration::from_secs(120));

    // Three real backend processes: sequential executor (bit-exact
    // reference), transport faults against every connection including the
    // router's own.
    let args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--exec",
        "seq",
        "--workers",
        "4",
        "--fault-spec",
        "seed=9;write.torn=every:41;conn.drop=every:29",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut fleet = Fleet::spawn(env!("CARGO_BIN_EXE_trisolv-backend"), &args, 3).unwrap();

    let opts = RouterOptions {
        backends: fleet.addrs().to_vec(),
        replication: 2,
        probe_interval: Duration::from_millis(10),
        ..RouterOptions::default()
    };
    let ring = Ring::new(3, opts.vnodes);
    let router = Router::spawn(opts).unwrap();
    assert!(
        router.wait_healthy(3, Duration::from_secs(10)),
        "all 3 backend processes should connect"
    );
    let raddr = router.local_addr().to_string();

    let n = 48;
    let a = gen::random_spd(n, 5, 42);
    let reference = SparseCholeskySolver::factor(&a).unwrap();
    // LOAD can be hit by the transport faults too: retry on a fresh stream.
    let fp = {
        let mut c = Client::connect_with(&raddr, resilient_opts(999)).unwrap();
        let mut fp = None;
        for _ in 0..30 {
            match c.load(&a) {
                Ok(r) => {
                    fp = Some(r.fingerprint);
                    break;
                }
                Err(e) if e.is_transient() => {
                    std::thread::sleep(Duration::from_millis(5));
                    let mut again = Client::connect_with(&raddr, resilient_opts(999)).unwrap();
                    std::mem::swap(&mut c, &mut again);
                }
                Err(e) => panic!("load failed permanently: {e}"),
            }
        }
        fp.expect("LOAD never survived the fault plan")
    };
    assert_eq!(fp, Fingerprint::of_matrix(&a));

    // SIGKILL the *primary* replica of this fingerprint partway through
    // the run — the worst single-node loss for this workload.
    let primary = ring.primary(fp).unwrap();
    let nclients = 6u64;
    let rounds = 25u64;
    // Progress counter gates the kill: the primary dies only after real
    // traffic has flowed, and well before the workload can finish — every
    // client is guaranteed to solve across the loss.
    let progress = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..nclients {
            let raddr = raddr.clone();
            let reference = &reference;
            let progress = &progress;
            scope.spawn(move || {
                let mut client = Client::connect_with(&raddr, resilient_opts(c)).unwrap();
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
                        "client {c} round {r}: answer not bit-identical under chaos"
                    );
                    progress.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // kill mid-load: after ~20% of the solves, long before the end
        while progress.load(Ordering::Relaxed) < nclients * rounds / 5 {
            std::thread::sleep(Duration::from_millis(2));
        }
        fleet.kill(primary);
    });

    // the router observed the loss and re-routed at least once
    assert!(
        router.failovers() >= 1,
        "SIGKILL of the primary must be visible as a failover"
    );
    let mut probe = Client::connect_with(&raddr, resilient_opts(31)).unwrap();
    let stats = probe.stats().unwrap();
    let get = |k: &str| {
        stats
            .iter()
            .find(|(key, _)| key == k)
            .unwrap_or_else(|| panic!("missing stat {k}"))
            .1
    };
    assert_eq!(get("router_backends"), 3);
    assert!(
        get("router_backends_healthy") <= 2,
        "the killed backend cannot be healthy"
    );
    assert!(get("router_failovers") >= 1);

    drop(probe);
    router.join();
}
